// Command perfbench is the repository's benchmark: one process that
// drives the consensus stack from outside, through its public
// functions, on one of four workloads, checks every output, and prints
// the workload's metrics by name and unit.
//
//	perfbench --workload svc-mem --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload twice (untraced, then traced, each for half the
// time) and prints the per-layer metrics of the traced run plus the
// tracing overhead. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. A failed check
// makes the exit code non-zero. README.md describes the workloads and
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics of an untraced run, in print order. Every
// workload reports all of them (README.md gives each one's meaning per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference the traced run reports as trace.overhead.<name>.
var overheadOf = []string{"throughput_per_s", "latency_p50_ms"}

// perLayer lists the metrics of a traced run, in print order. A metric
// whose layer the workload does not exercise reads 0 and prints as n/a.
// Units ending in ".exact" mark counters that must repeat bit for bit
// across runs (see exact.go).
var perLayer = []metricDef{
	{"workload.gen_lag_p99_ms", "ms"},
	{"workload.offered_per_s", "1/s"},
	{"service.propose_us_p99", "us"},
	{"service.queue_ms_p50", "ms"},
	{"service.decision_ms_p50", "ms"},
	{"service.batch_fill_pct", "%"},
	{"service.proposals_per_decision", "count"},
	{"service.instance_failures", "count"},
	{"service.joined_ratio", "ratio"},
	{"service.latency_p99_ms", "ms"},
	{"service.latency_p999_ms", "ms"},
	{"runtime.rounds_per_decision", "rounds"},
	{"runtime.round_ms_p50", "ms"},
	{"runtime.quiet_instance_ms", "ms"},
	{"core.step_us_per_decision", "us"},
	{"core.step_share", "ratio"},
	{"fd.suspicions_per_decision", "count"},
	{"transport.frames_per_decision", "count"},
	{"transport.send_us_p99", "us"},
	{"transport.bytes_per_decision", "B"},
	{"transport.connect_ms", "ms"},
	{"transport.hub_hop_us", "us"},
	{"transport.mux_route_us", "us"},
	{"transport.tcp_hop_us", "us"},
	{"wire.codec_ns_per_frame", "ns"},
	{"journal.fsync_ms_p50", "ms"},
	{"journal.fsync_ms_p99", "ms"},
	{"journal.appends_per_fsync", "count"},
	{"journal.fsyncs_per_decision", "count"},
	{"journal.append_sync_ms", "ms"},
	{"journal.append_nosync_us", "us"},
	{"sim.run_us", "us"},
	{"lowerbound.cpu_per_wall", "ratio"},
	{"lowerbound.runs", "count.exact"},
	{"lowerbound.worst_round", "round.exact"},
	{"chaos.scenario_ms_p50", "ms"},
	{"chaos.scenario_ms_p90", "ms"},
	{"chaos.compression", "x"},
	{"chaos.decided", "count.exact"},
	{"chaos.rounds_per_decision", "rounds.exact"},
	{"chaos.suspicions_per_decision", "count"},
	{"adapt.selector_transitions", "count.exact"},
	{"adapt.adjustments", "count.exact"},
	{"proc.cpu_per_wall", "ratio"},
	{"proc.alloc_kb_per_decision", "KB"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.overhead.throughput_per_s", "1/s"},
	{"trace.overhead.latency_p50_ms", "ms"},
}

// runCfg is what a workload receives.
type runCfg struct {
	seed    int64
	measure time.Duration // length of the measured phases
	traced  bool
	scratch string // directory for journals and other run files
	spans   *recorder
}

// outcome is what a workload run returns.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	checks    []verdict
	exact     []exactCounter
	notes     []string // method lines: phase lengths, rates, sample counts
	n, t      int      // the workload's system shape, which the layer probes reuse
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// verdict is one correctness check's verdict.
type verdict struct {
	name string
	ok   bool
	why  string
}

// checkf records a check; why explains a failure.
func (o *outcome) checkf(name string, ok bool, format string, args ...any) {
	c := verdict{name: name, ok: ok}
	if !ok {
		c.why = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
}

// notef records one method line.
func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadFunc runs one workload.
type workloadFunc func(runCfg) (*outcome, error)

// workloads maps workload names to the functions that run them.
var workloads = map[string]workloadFunc{
	"svc-mem":          runSvcMem,
	"peer-tcp-journal": runPeerTCP,
	"explore":          runExplore,
	"chaos-sweep":      runChaos,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: svc-mem, peer-tcp-journal, explore or chaos-sweep")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "seconds of measured work")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer report")
		state   = flag.String("state", ".bench_build/perfbench", "directory for run state, journals and spans")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	st, err := loadState(*state)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	trial := st.Trials[*name]
	st.Trials[*name] = trial + 1

	box := describeBox()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d trial=%d\n", *name, *seed, *seconds, *trace, trial)
	fmt.Printf("box: %s\n", box)

	scratch, err := os.MkdirTemp(*state, "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	cfg := runCfg{seed: *seed, measure: time.Duration(*seconds) * time.Second, scratch: scratch}
	var out *outcome
	if *trace == 0 {
		out, err = wl(cfg)
	} else {
		out, err = tracedRun(wl, cfg, *name, *state)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out.checks = append(out.checks, st.compare(*name, *seed, out.exact)...)
	for _, n := range out.notes {
		fmt.Printf("method: %s\n", n)
	}
	report := make(map[string]any, len(defs))
	for _, d := range defs {
		v := out.metrics[d.Name]
		shown := fmt.Sprintf("%.6g %s", v, d.Unit)
		if _, measured := out.metrics[d.Name]; !measured {
			shown = "n/a (layer not exercised by this workload; reported as 0)"
		}
		fmt.Printf("metric %-34s %s\n", d.Name, shown)
		report[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	fmt.Printf("accounting: attempted=%d failed=%d failed_ratio=%.6g\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	correct := out.attempted > 0
	for _, c := range out.checks {
		if c.ok {
			fmt.Printf("check ok   %s\n", c.name)
		} else {
			correct = false
			fmt.Printf("check FAIL %s: %s\n", c.name, c.why)
		}
	}
	if correct {
		st.record(*name, *seed, out.exact)
	}
	if err := st.save(*state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	writeResult(*state, *name, trial, map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace, "trial": trial,
		"box": box, "method": out.notes, "correct": correct, "attempted": out.attempted,
		"failed": out.failed, "metrics": report,
	})
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": report,
	})
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// tracedRun runs the workload untraced and then traced, each for half
// the measured time, and reports the traced run's per-layer metrics,
// the layer probes, and the traced-minus-untraced overhead. Spans go to
// <state>/spans/<workload>.jsonl.
func tracedRun(wl workloadFunc, cfg runCfg, name, state string) (*outcome, error) {
	cfg.measure /= 2
	plain, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	cfg.traced = true
	cfg.spans = newRecorder()
	out, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	out.checks = append(plain.checks, out.checks...)
	out.exact = append(plain.exact, out.exact...)
	out.attempted += plain.attempted
	out.failed += plain.failed
	for _, m := range overheadOf {
		out.metrics["trace.overhead."+m] = out.metrics[m] - plain.metrics[m]
	}
	if err := runProbes(cfg, out); err != nil {
		return nil, err
	}
	path := filepath.Join(state, "spans", name+".jsonl")
	if err := cfg.spans.write(path); err != nil {
		return nil, err
	}
	out.notef("traced run: untraced and traced halves of %s each; %d spans written to %s",
		cfg.measure, cfg.spans.len(), path)
	return out, nil
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// describeBox records the machine and the Go runtime a result came from.
func describeBox() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			load = strings.Join(f[:3], " ")
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q loadavg=%q",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(),
		goruntime.GOOS, goruntime.GOARCH, cpu, load)
}

// writeResult keeps a full record of one run (box, method, metrics)
// under <state>/results; failing to write it does not fail the run.
func writeResult(state, name string, trial int, rec map[string]any) {
	dir := filepath.Join(state, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keep result:", err)
		return
	}
	b, _ := json.MarshalIndent(rec, "", "  ")
	path := filepath.Join(dir, fmt.Sprintf("%s-%04d.json", name, trial))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keep result:", err)
	}
}
