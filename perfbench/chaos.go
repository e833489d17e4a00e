package main

import (
	"bufio"
	"fmt"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"indulgence/internal/chaos"
)

const (
	// chaosBlock is the number of scenarios in one measured sweep. A run
	// sweeps consecutive blocks of its seed's scenarios until its time
	// is up, so its mix of scenarios is wide enough to repeat from seed
	// to seed.
	chaosBlock = 100
	// chaosRef is the size of the fixed reference sweep (scenarios 0 to
	// chaosRef-1): the chaos-sweep workload makes it first, and every
	// traced run's layer probes sweep it chaosProbeReps times.
	chaosRef       = 50
	chaosProbeReps = 4
	// chaosStride separates the scenario ranges of workload seeds.
	chaosStride = 1 << 20
)

// chaosBase is the first scenario seed of the workload seed's sweeps;
// different workload seeds sweep disjoint ranges, all past the
// reference sweep.
func chaosBase(seed int64) int64 { return (seed + 1) * chaosStride }

// sweepCounts are the deterministic counts of a sweep, summed over its
// scenarios' quiescent metric snapshots.
type sweepCounts struct {
	decided, shed, failed   int
	failures                int
	rounds, instances       int64 // rounds_per_decision histogram sum and count
	suspicions, transitions int64
	adjustments             int64 // batch controller adjustments
	instFailures            int64
}

// runChaos is the chaos-sweep workload: the service, runtime and
// transport layers under crashes, partitions and restarts on virtual
// time, with fd suspicions, the adapt selector and journal recovery.
// BENCHMARK.json leaves it out (README.md says why); the traced runs
// measure its layers on the reference sweep instead.
func runChaos(cfg runCfg) (*outcome, error) {
	// Seed replay is promised at GOMAXPROCS 1, as the chaos CLI runs.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	o := newOutcome()
	base := chaosBase(cfg.seed)
	first := chaos.Generate(base)
	o.n, o.t = first.N, first.T

	var setups []float64
	for b := 0; b < setupReps; b++ {
		t0 := time.Now()
		for i := int64(0); i < chaosBlock; i++ {
			if err := chaos.Generate(base + i).Validate(); err != nil {
				return nil, fmt.Errorf("scenario %d: %w", base+i, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = median(setups)
	o.notef("setup: generating and validating a sweep's %d scenario specs, %d times; setup_s is the median", chaosBlock, setupReps)

	ref, _, _ := chaosReference(o, 1)

	var walls []float64
	var total sweepCounts
	blocks := 0
	p0 := readProc()
	for start := time.Now(); blocks == 0 || time.Since(start) < cfg.measure; blocks++ {
		total.plus(sweep(o, cfg.spans, base+int64(blocks)*chaosBlock, chaosBlock, func(r chaos.Result) {
			walls = append(walls, ms(r.Wall))
		}))
	}
	d := p0.to(readProc())
	o.attempted = ref.decided + ref.shed + ref.failed + total.decided + total.shed + total.failed
	o.failed = ref.failed + ref.shed + total.failed + total.shed
	o.checkf("chaos: zero failing seeds", total.failures == 0,
		"%d of %d seeds failed", total.failures, blocks*chaosBlock)

	lat := newDist(walls)
	o.metrics["throughput_per_s"] = float64(lat.n()) / d.wall.Seconds()
	o.metrics["latency_p50_ms"] = lat.at(50)
	o.metrics["max_rss_mb"] = maxRSSMB()
	o.notef("measured: %d sweeps of %d single-group scenarios from seed %d at GOMAXPROCS 1: %d decided, %d shed, %d failed proposals",
		blocks, chaosBlock, base, total.decided, total.shed, total.failed)
	o.notef("latency is one scenario's wall time: median of %d", lat.n())
	if cfg.traced {
		inst := float64(total.instances)
		o.metrics["runtime.rounds_per_decision"] = total.roundsPerDecision()
		o.metrics["fd.suspicions_per_decision"] = ratio(float64(total.suspicions), inst)
		o.metrics["service.instance_failures"] = float64(total.instFailures)
		d.report(o, inst)
	}
	return o, nil
}

// chaosReference sweeps the fixed reference scenarios [0, chaosRef)
// reps times at GOMAXPROCS 1. The reference sweep is the same in every
// run whatever the seed, so its counts are exact counters: every repeat
// and every run must reproduce them. It returns the counts of one sweep,
// every scenario's wall time in milliseconds, and the virtual-to-wall
// time compression.
func chaosReference(o *outcome, reps int) (sweepCounts, []float64, float64) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var first sweepCounts
	var walls []float64
	var virtual, wall time.Duration
	same := true
	for i := 0; i < reps; i++ {
		c := sweep(o, nil, 0, chaosRef, func(r chaos.Result) {
			walls = append(walls, ms(r.Wall))
			virtual += r.Virtual
			wall += r.Wall
		})
		if i == 0 {
			first = c
		}
		same = same && c == first
	}
	o.checkf("chaos reference sweep: zero failing seeds, counts repeat", first.failures == 0 && same,
		"%d failing seeds, repeats agree %v", first.failures, same)
	o.exact = append(o.exact,
		exactCounter{name: "chaos.decided", value: strconv.Itoa(first.decided)},
		exactCounter{name: "chaos.rounds_per_decision", value: exactFloat(first.roundsPerDecision())},
		exactCounter{name: "adapt.selector_transitions", value: strconv.FormatInt(first.transitions, 10)},
		exactCounter{name: "adapt.adjustments", value: strconv.FormatInt(first.adjustments, 10)})
	o.notef("chaos reference sweep: scenarios [0, %d) %d times at GOMAXPROCS 1: %d decided, %d shed, %d failed proposals over %d instances per sweep",
		chaosRef, reps, first.decided, first.shed, first.failed, first.instances)
	return first, walls, ratio(float64(virtual), float64(wall))
}

// sweep runs count scenarios from seed base, recording a span per
// scenario and any failing seed, and returns their counts.
func sweep(o *outcome, rec *recorder, base int64, count int, onRun func(chaos.Result)) sweepCounts {
	var c sweepCounts
	st := chaos.Sweep(base, count, chaos.Options{}, func(r chaos.Result) {
		end := now()
		rec.add(rec.id(), 0, "scenario", end-int64(r.Wall), end, uint64(r.Scenario.Seed))
		c.add(r.Metrics)
		if onRun != nil {
			onRun(r)
		}
	})
	c.decided, c.shed, c.failed, c.failures = st.Decided, st.Shed, st.Failed, len(st.Failures)
	for _, f := range st.Failures {
		o.notef("failing seed %d: err %v, violations %v, %d failed proposals", f.Scenario.Seed, f.Err, f.Violations, f.Failed)
	}
	return c
}

// plus adds b's counts to c.
func (c *sweepCounts) plus(b sweepCounts) {
	c.decided += b.decided
	c.shed += b.shed
	c.failed += b.failed
	c.failures += b.failures
	c.rounds += b.rounds
	c.instances += b.instances
	c.suspicions += b.suspicions
	c.transitions += b.transitions
	c.adjustments += b.adjustments
	c.instFailures += b.instFailures
}

// roundsPerDecision is the mean decision round over the sweep's decided
// instances.
func (c sweepCounts) roundsPerDecision() float64 {
	return ratio(float64(c.rounds), float64(c.instances))
}

// add sums one scenario's quiescent registry snapshot into c.
func (c *sweepCounts) add(text string) {
	c.rounds += counterSum(text, "indulgence_rounds_per_decision_sum")
	c.instances += counterSum(text, "indulgence_rounds_per_decision_count")
	c.suspicions += counterSum(text, "indulgence_suspicions_total")
	c.transitions += counterSum(text, "indulgence_adapt_selector_transitions_total")
	c.adjustments += counterSum(text, "indulgence_adapt_adjustments_total")
	c.instFailures += counterSum(text, "indulgence_instance_failures_total")
}

// counterSum sums every series of one metric family's sample name in a
// Prometheus text snapshot.
func counterSum(text, name string) int64 {
	var sum int64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64); err == nil {
			sum += v
		}
	}
	return sum
}
