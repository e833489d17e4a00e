package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/workload"
)

// TestPercentileRule pins the tail rule: the highest ladder percentile
// with at least ten samples beyond it, and the maximum (p100) when the
// median itself has fewer.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{21, 50, true},
		{99, 50, true},
		{100, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{200000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, p), p)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := newDist(xs).p99(); v != 990 || p != 99 {
		t.Errorf("p99 of 1..1000 = %g at p%g, want 990 at p99", v, p)
	}
	if v, p := newDist(xs[:5]).p99(); v != 5 || p != 100 {
		t.Errorf("p99 of five samples = %g at p%g, want the maximum 5 at p100", v, p)
	}
	if v, p := newDist(xs[:150]).p99(); v != 135 || p != 90 {
		t.Errorf("p99 of 150 samples = %g at p%g, want 135 at p90", v, p)
	}
}

// TestHistQuantile checks the log-linear histogram against exact
// percentiles of a known sample.
func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	got, n := h.quantile(99)
	want := 9900 * time.Microsecond
	if n != 10000 || got < want*94/100 || got > want*106/100 {
		t.Errorf("p99 = %s of %d, want within 6%% of %s", got, n, want)
	}
}

// memService starts a small single-process service for the harness
// tests.
func memService(t *testing.T) *memStack {
	t.Helper()
	s, err := buildMem(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.close() })
	return s
}

// testEvents generates d of Poisson arrivals at rate per second.
func testEvents(t *testing.T, rate float64, d time.Duration) []workload.Event {
	t.Helper()
	spec := &workload.Spec{
		Seed:    7,
		Cohorts: []workload.Cohort{{Clients: 1, Arrival: workload.Arrival{Process: workload.Poisson, Rate: rate}}},
		Phases:  []workload.Phase{{Duration: d, Rate: 1}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec.Events()
}

// TestDueTimeAccounting drives a deliberately late generator — every
// 25th submission stalls 20ms — and checks that latency is timed from
// the due time, so the events queued behind a stall carry its wait.
func TestDueTimeAccounting(t *testing.T) {
	s := memService(t)
	events := testEvents(t, 1000, 500*time.Millisecond)
	const stall = 20 * time.Millisecond
	late := func(ctx context.Context, k int, v model.Value) (*service.Future, error) {
		if k%25 == 0 {
			time.Sleep(stall)
		}
		return s.svc.Propose(ctx, v)
	}
	start := now() + int64(10*time.Millisecond)
	out := openLoop(late, events, start, time.Now().Add(10*time.Second))
	r := &loadRun{open: out}
	behind := 0
	for i, a := range out {
		if a.kind != resolvedOK {
			t.Fatalf("attempt %d: outcome %d", i, a.kind)
		}
		if a.due != start+int64(events[i].At) {
			t.Fatalf("attempt %d due at %d, event due at %d", i, a.due, start+int64(events[i].At))
		}
		lat := r.latencyMs(a)
		if lag := ms(time.Duration(a.submitted - a.due)); lat < lag {
			t.Fatalf("attempt %d: latency %.3fms below its generator lag %.3fms", i, lat, lag)
		}
		if a.submitted-a.due >= int64(stall/2) {
			behind++
		}
	}
	// Each stall delays at least the next event that was due within it.
	if want := len(out) / 25 / 2; behind < want {
		t.Errorf("%d attempts submitted >= %s late, want at least %d behind %d stalls", behind, stall/2, want, len(out)/25)
	}
	r2 := &loadRun{open: out, sched: schedule{open: 500 * time.Millisecond}}
	o := newOutcome()
	r2.reportWorkload(o)
	if lag := o.metrics["workload.gen_lag_p99_ms"]; lag < ms(stall)/2 {
		t.Errorf("generator lag p99 %.3fms does not show the %s stalls", lag, stall)
	}
}

// TestFailureAccounting refuses every 7th proposal and fails the rest
// of the run by closing the service, and checks that every attempt is
// counted once as resolved, failed, refused or unresolved.
func TestFailureAccounting(t *testing.T) {
	s := memService(t)
	refuse := errors.New("refused by test")
	events := testEvents(t, 500, 200*time.Millisecond)
	propose := func(ctx context.Context, k int, v model.Value) (*service.Future, error) {
		if k%7 == 0 {
			return nil, refuse
		}
		return s.svc.Propose(ctx, v)
	}
	out := openLoop(propose, events, now(), time.Now().Add(10*time.Second))
	if err := s.svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Proposals after Close are refused by the service itself.
	r := &loadRun{open: out, led: newLedger()}
	closedLoop(propose, now(), now()+int64(20*time.Millisecond), closedValueBase, new(atomic.Int64), r.led)
	after := r.led.attempted
	if after == 0 || r.led.refused != after {
		t.Fatalf("closed loop after Close: %+v, want every attempt refused", r.led.tally)
	}
	for _, a := range out {
		r.led.add(a.attempt)
	}
	o := newOutcome()
	r.report(o)
	tl := r.tally()
	refused := (len(events) + 6) / 7
	if tl.attempted != len(events)+after || tl.refused < refused+after {
		t.Fatalf("tally %+v: want %d attempted, at least %d refused", tl, len(events)+after, refused+after)
	}
	if o.attempted != tl.attempted || o.failed != tl.failed+tl.refused+tl.unresolved {
		t.Errorf("outcome attempted %d failed %d, tally %+v", o.attempted, o.failed, tl)
	}
	for _, c := range o.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.why)
		}
	}
}

// TestWrappersTransparent checks that the traced run's seams leave the
// program unchanged: exploring through the wrapped factory yields the
// unwrapped exploration's worst round, run count and witness, and the
// metered endpoint hands out the inner endpoint's own Recv channel.
func TestWrappersTransparent(t *testing.T) {
	cfg := lowerbound.Config{
		N: 5, T: 2, Synchrony: model.ES, Factory: core.New(core.Options{}),
		Proposals: []model.Value{3, 1, 4, 5, 2}, Mode: lowerbound.AllSubsets,
	}
	plain, err := lowerbound.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steps stepMeter
	cfg.Factory = steps.wrap(cfg.Factory)
	wrapped, err := lowerbound.Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Runs != plain.Runs || wrapped.WorstRound != plain.WorstRound ||
		wrapped.Witness.String() != plain.Witness.String() || wrapped.WitnessEarliest != plain.WitnessEarliest {
		t.Errorf("wrapped exploration %d runs, worst %d, witness %v; unwrapped %d, %d, %v",
			wrapped.Runs, wrapped.WorstRound, wrapped.Witness, plain.Runs, plain.WorstRound, plain.Witness)
	}
	if steps.busyTime() <= 0 {
		t.Errorf("step meter saw %s busy", steps.busyTime())
	}

	hub, err := transport.NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ep, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	var links linkMeter
	if links.wrap(ep).Recv() != ep.Recv() {
		t.Error("metered endpoint does not return the inner Recv channel")
	}
}

// TestExactCounters checks that a counter differing from an earlier
// run's value fails, and that per-seed counters compare within a seed
// only.
func TestExactCounters(t *testing.T) {
	st := &state{Trials: map[string]int{}, Exact: map[string]string{}}
	first := []exactCounter{{name: "a", value: "1"}, {name: "w", value: "x", perSeed: true}}
	st.record("wl", 1, first)
	for _, c := range st.compare("wl", 2, []exactCounter{{name: "a", value: "1"}, {name: "w", value: "y", perSeed: true}}) {
		if !c.ok {
			t.Errorf("unexpected failure: %s", c.why)
		}
	}
	bad := st.compare("wl", 1, []exactCounter{{name: "a", value: "2"}})
	if len(bad) != 1 || bad[0].ok {
		t.Errorf("changed counter not flagged: %+v", bad)
	}
	within := st.compare("wl", 3, []exactCounter{{name: "w", value: "p", perSeed: true}, {name: "w", value: "q", perSeed: true}})
	if len(within) != 1 || within[0].ok {
		t.Errorf("counter differing within one run not flagged: %+v", within)
	}
}

// TestBenchmarkFile checks that BENCHMARK.json lists exactly the
// metrics the harness prints, with the same units, and only workloads
// the harness runs (chaos-sweep runs by hand; README.md says why).
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the harness runs", w.Name)
		}
	}
}

// TestQuietestWindows checks that latency windows stay inside one
// cycle's open phase and that only the windows with the least host
// steal are kept.
func TestQuietestWindows(t *testing.T) {
	s := &stealSampler{}
	// Steal climbs by 10 ticks per 100ns over the second cycle's first
	// 600ns only.
	for at := int64(0); at <= 4000; at += 100 {
		v := int64(0)
		if at > 2000 {
			v = min(at-2000, 600) / 10
		}
		s.at, s.ticks = append(s.at, at), append(s.ticks, v)
	}
	r := &loadRun{sched: schedule{open: 1500, closed: 500}, steal: s}
	// Two cycles of 2000ns; each open phase holds 2*minWindow attempts.
	for cycle := int64(0); cycle < 2; cycle++ {
		for i := int64(0); i < 2*minWindow; i++ {
			a := openAttempt{due: cycle*2000 + i*1500/(2*minWindow)}
			a.kind, a.resolved = resolvedOK, a.due+int64(time.Millisecond)*(1+cycle)
			r.open = append(r.open, a)
		}
	}
	ws := r.windows()
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4 (two per open phase)", len(ws))
	}
	for i, w := range ws {
		if want := ms(time.Millisecond * time.Duration(1+i/2)); w.lat.at(0) != want || w.lat.at(100) != want {
			t.Errorf("window %d spans latencies %.3g..%.3g ms, want all %.3g: it crossed a cycle", i, w.lat.at(0), w.lat.at(100), want)
		}
	}
	if ws[2].steal == 0 || ws[0].steal != 0 || ws[1].steal != 0 || ws[3].steal != 0 {
		t.Fatalf("window steals %d %d %d %d, want only the third disturbed", ws[0].steal, ws[1].steal, ws[2].steal, ws[3].steal)
	}
	if st := r.windowed(); st.all != 4 || len(st.p50) != 3 || st.smallest != minWindow {
		t.Fatalf("kept %d of %d windows, the smallest of %d attempts; want 3 of 4, of %d", len(st.p50), st.all, st.smallest, minWindow)
	}
	if got := quietest([]window{{steal: 5}, {steal: 5}}); len(got) != 2 {
		t.Errorf("equal steal kept %d of 2 windows", len(got))
	}
}

// TestQuietMedian checks that samples taken while the host stole more
// than it did during the median sample are left out, and that with no
// steal every sample counts.
func TestQuietMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 9, 10}
	if m, n := (parts{xs, []int64{0, 0, 0, 7, 9}}).quietMedian(); m != 2 || n != 3 {
		t.Errorf("quiet median %g of %d samples, want 2 of 3", m, n)
	}
	if m, n := (parts{xs, make([]int64, len(xs))}).quietMedian(); m != 3 || n != 5 {
		t.Errorf("no-steal median %g of %d samples, want 3 of 5", m, n)
	}
}

// TestLedger checks that the ledger counts every outcome and flags
// futures that disagree with their instance and instances that decided
// a value none of their futures proposed.
func TestLedger(t *testing.T) {
	r := &loadRun{led: newLedger()}
	for _, a := range []attempt{
		{value: 1, decided: 1, instance: 1, round: 3, resolved: 20, kind: resolvedOK},
		{value: 2, decided: 1, instance: 1, round: 3, resolved: 10, kind: resolvedOK},
		{value: 3, decided: 4, instance: 1, round: 3, resolved: 30, kind: resolvedOK}, // disagrees
		{value: 5, decided: 9, instance: 2, round: 3, resolved: 40, kind: resolvedOK}, // 9 never proposed
		{value: 6, kind: failedKind},
		{value: 7, kind: refusedKind},
		{value: 8, kind: unresolvedKind},
		{value: 9},
	} {
		r.led.add(a)
	}
	if want := (tally{attempted: 8, ok: 4, failed: 1, refused: 1, unresolved: 1}); r.tally() != want {
		t.Errorf("tally %+v, want %+v", r.tally(), want)
	}
	o := newOutcome()
	insts := r.instances(o)
	if len(insts) != 2 || insts[1].first != 10 || insts[1].decided != 1 {
		t.Errorf("instances %+v, want 2 with instance 1 first resolved at 10 deciding 1", insts)
	}
	failed := map[string]bool{}
	for _, c := range o.checks {
		failed[c.name] = !c.ok
	}
	if !failed["futures of one instance agree on its decision"] || !failed["every decided value is a proposal of its instance"] {
		t.Errorf("checks %+v: want both instance checks to fail", o.checks)
	}
	r.report(o)
	if failed := o.checks[len(o.checks)-1]; failed.name != "every attempt is accounted for" || failed.ok {
		t.Errorf("an unsettled attempt passed the accounting check: %+v", failed)
	}
}

// TestStolenMs checks the conversion of steal ticks summed over CPUs
// into each CPU's lost milliseconds.
func TestStolenMs(t *testing.T) {
	n := float64(goruntime.NumCPU())
	if got, want := stolenMs(int64(n)*ticksPerSecond), 1000.0; got != want {
		t.Errorf("one second of steal on every CPU: %g ms, want %g", got, want)
	}
}
