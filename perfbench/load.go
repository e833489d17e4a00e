package main

import (
	"context"
	"errors"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/workload"
)

// The service shape both service workloads share: the configuration of
// BenchmarkMicroServiceThroughput (A_{t+2}, n=4, t=1, batches of 4,
// 1ms linger, 32 instances in flight) at the default 25ms base timeout.
const (
	svcN, svcT     = 4, 1
	svcBatch       = 4
	svcLinger      = time.Millisecond
	svcInflight    = 32
	svcBaseTimeout = 25 * time.Millisecond
	closedClients  = 32
	// setupReps is how many set-up samples a run takes; setup_s is
	// their median.
	setupReps = 15
	// grace is how long past the end of the load a proposal may still
	// resolve before it counts as unresolved.
	grace = 5 * time.Second
	// cycles is how many open-loop/closed-loop cycles a run alternates.
	// Throughput is the median over cycles and latency the median over
	// windows of open-loop attempts, so a burst of noise on the box (a
	// stalled vCPU, a GC cycle) moves one cycle or window, not the run.
	cycles = 12
	// minWindow is the fewest open-loop attempts one latency window
	// holds: with 1000, at least 10 lie beyond the 99th percentile.
	// Windows never span a closed-loop phase.
	minWindow = 1000
)

// Value bases keep every phase's proposals distinct from each other and
// from the open-loop values workload.Value derives.
const (
	warmValueBase   = model.Value(1) << 40
	closedValueBase = model.Value(1) << 41
)

// origin is the time base of attempt timestamps and spans.
var origin = time.Now()

// now returns nanoseconds since origin.
func now() int64 { return int64(time.Since(origin)) }

// sleepUntil sleeps until the offset t from origin.
func sleepUntil(t int64) {
	if d := time.Duration(t - now()); d > 0 {
		time.Sleep(d)
	}
}

// proposeFunc submits proposal v as client k.
type proposeFunc func(ctx context.Context, k int, v model.Value) (*service.Future, error)

// outcomeKind classifies one proposal attempt.
type outcomeKind uint8

const (
	resolvedOK     outcomeKind = iota + 1
	failedKind                 // the future resolved with an error
	refusedKind                // Propose itself returned an error
	unresolvedKind             // no resolution by the deadline
)

// attempt is one proposal of any phase and its outcome. Times are
// nanoseconds since origin.
type attempt struct {
	value, decided model.Value
	instance       uint64
	resolved       int64
	round          int32
	kind           outcomeKind
}

// openAttempt is an open-loop attempt with its submission timing: when
// the event was due, when the generator submitted it and when Propose
// returned.
type openAttempt struct {
	attempt
	due, submitted, proposed int64
}

// schedule is a run's timeline: a closed-loop warm-up that fills caches
// and connection state, then cycles of an open-loop phase followed by a
// closed-loop phase.
type schedule struct {
	warm         time.Duration
	open, closed time.Duration // per cycle
}

func newSchedule(measure time.Duration) schedule {
	warm := measure / 10
	per := (measure - warm) / cycles
	open := per * 3 / 5
	return schedule{warm: warm, open: open, closed: per - open}
}

// spec is the open-loop load: Poisson arrivals at rate per second during
// every cycle's open phase, and none during its closed phase.
func (s schedule) spec(seed int64, rate float64) *workload.Spec {
	spec := &workload.Spec{
		Seed: seed,
		Cohorts: []workload.Cohort{{
			Name: "open", Clients: 1,
			Arrival: workload.Arrival{Process: workload.Poisson, Rate: rate},
		}},
	}
	for k := 0; k < cycles; k++ {
		spec.Phases = append(spec.Phases,
			workload.Phase{Name: "open", Duration: s.open, Rate: 1},
			workload.Phase{Name: "closed", Duration: s.closed, Rate: 0})
	}
	return spec
}

// openLoop submits each event at its due time (an offset from start)
// regardless of how earlier ones fare, and waits for every future on its
// own goroutine, so a stall delays the resolution — not the submission —
// of later events. Each attempt is timed from its due time. The
// generator paces itself on its own OS thread (see pacer).
func openLoop(propose proposeFunc, events []workload.Event, start int64, deadline time.Time) []openAttempt {
	out := make([]openAttempt, len(events))
	pace := newPacer()
	defer pace.stop()
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var wg sync.WaitGroup
	for i, ev := range events {
		a := &out[i]
		a.value = ev.Value
		a.due = start + int64(ev.At)
		pace.until(a.due)
		a.submitted = now()
		fut, err := propose(ctx, i, ev.Value)
		a.proposed = now()
		if err != nil {
			a.kind = refusedKind
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			settle(ctx, &a.attempt, fut)
		}()
	}
	wg.Wait()
	return out
}

// settle waits for a's future and classifies the outcome.
func settle(ctx context.Context, a *attempt, fut *service.Future) {
	dec, err := fut.Wait(ctx)
	a.resolved = now()
	switch {
	case err == nil:
		a.kind = resolvedOK
		a.instance, a.decided, a.round = dec.Instance, dec.Value, int32(dec.Round)
	case errors.Is(err, context.DeadlineExceeded):
		a.kind = unresolvedKind
	default:
		a.kind = failedKind
	}
}

// closedLoop runs closedClients goroutines that each propose, wait for
// the decision and propose again, from start until end (offsets from
// origin). Values are base plus a count drawn from next. It folds every
// attempt into led and returns the number of distinct instances that
// resolved a future before end — the decided values of the phase.
func closedLoop(propose proposeFunc, start, end int64, base model.Value, next *atomic.Int64, led *ledger) int {
	sleepUntil(start)
	ctx, cancel := context.WithDeadline(context.Background(), origin.Add(time.Duration(end)+grace))
	defer cancel()
	per := make([][]attempt, closedClients)
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < end {
				a := attempt{value: base + model.Value(next.Add(1))}
				fut, err := propose(ctx, c, a.value)
				if err != nil {
					a.kind = refusedKind
				} else {
					settle(ctx, &a, fut)
				}
				per[c] = append(per[c], a)
			}
		}()
	}
	wg.Wait()
	decided := map[uint64]struct{}{}
	for _, as := range per {
		for _, a := range as {
			if a.kind == resolvedOK && a.resolved <= end {
				decided[a.instance] = struct{}{}
			}
			led.add(a)
		}
	}
	return len(decided)
}

// ledger folds settled attempts into counts by outcome and one entry
// per decided instance, as each phase ends. The harness's own memory
// then grows with decided instances, not with attempts, and max_rss_mb
// follows the program rather than the harness's records.
type ledger struct {
	tally
	insts map[uint64]instEntry
	// disagree counts futures that resolved differently from the first
	// future of their instance.
	disagree int
}

// instEntry is what the checks and reports need of one decided
// instance.
type instEntry struct {
	decided model.Value
	round   int32
	first   int64 // earliest resolution, ns since origin
	// proposed reports whether one of the instance's futures proposed
	// the decided value.
	proposed bool
}

func newLedger() *ledger { return &ledger{insts: map[uint64]instEntry{}} }

// add folds one attempt.
func (l *ledger) add(a attempt) {
	l.attempted++
	switch a.kind {
	case resolvedOK:
		l.ok++
	case failedKind:
		l.failed++
	case refusedKind:
		l.refused++
	case unresolvedKind:
		l.unresolved++
	}
	if a.kind != resolvedOK {
		return
	}
	e, ok := l.insts[a.instance]
	if !ok {
		e = instEntry{decided: a.decided, round: a.round, first: a.resolved}
	} else if e.decided != a.decided || e.round != a.round {
		l.disagree++
	}
	e.first = min(e.first, a.resolved)
	e.proposed = e.proposed || a.value == e.decided
	l.insts[a.instance] = e
}

// loadRun is the record of one run's load.
type loadRun struct {
	sched schedule
	rate  float64
	start int64         // start of the first cycle
	open  []openAttempt // in due order
	led   *ledger       // every attempt of every phase
	// decidedPerS is each cycle's closed-loop decided values per second,
	// and cycleSteal the host steal ticks during that closed phase.
	decidedPerS []float64
	cycleSteal  []int64
	// proc spans the warm-up and the cycles, like the instance counts
	// it is divided by; maxRSS is the process peak at their end, before
	// the checks build their own tables.
	proc   procDelta
	maxRSS float64
	// steal is the host's steal time sampled over the cycles.
	steal *stealSampler
}

// runLoad drives the warm-up and the open/closed cycles: the open-loop
// generator runs on its own goroutine through the whole timeline (idle
// during closed phases) while the closed-loop clients run in each
// cycle's closed phase.
func runLoad(propose proposeFunc, seed int64, rate float64, measure time.Duration) (*loadRun, error) {
	s := newSchedule(measure)
	spec := s.spec(seed, rate)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	events := spec.Events()
	var warmNext, closedNext atomic.Int64
	led := newLedger()
	p0 := readProc()
	t := now()
	closedLoop(propose, t, t+int64(s.warm), warmValueBase, &warmNext, led)
	r := &loadRun{sched: s, rate: rate, led: led, steal: startSteal(), start: now()}
	deadline := origin.Add(time.Duration(r.start) + spec.Duration() + grace)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.open = openLoop(propose, events, r.start, deadline)
	}()
	for k := 0; k < cycles; k++ {
		ws := r.start + int64(k)*int64(s.open+s.closed) + int64(s.open)
		n := closedLoop(propose, ws, ws+int64(s.closed), closedValueBase, &closedNext, led)
		r.decidedPerS = append(r.decidedPerS, float64(n)/s.closed.Seconds())
	}
	<-done
	r.steal.stop()
	for k := 0; k < cycles; k++ {
		ws := r.start + int64(k)*int64(s.open+s.closed) + int64(s.open)
		r.cycleSteal = append(r.cycleSteal, r.steal.between(ws, ws+int64(s.closed)))
	}
	r.proc = p0.to(readProc())
	r.maxRSS = maxRSSMB()
	for _, a := range r.open {
		led.add(a.attempt)
	}
	return r, nil
}

// tally counts attempts by outcome.
type tally struct {
	attempted, ok, failed, refused, unresolved int
}

func (r *loadRun) tally() tally { return r.led.tally }

// instances returns the decided instances, and checks that every
// future of one instance resolved to the same decision, and that the
// decided value is one of that instance's proposals.
func (r *loadRun) instances(o *outcome) map[uint64]instEntry {
	invalid := 0
	for _, e := range r.led.insts {
		if !e.proposed {
			invalid++
		}
	}
	o.checkf("futures of one instance agree on its decision", r.led.disagree == 0,
		"%d futures disagree with their instance's first resolution", r.led.disagree)
	o.checkf("every decided value is a proposal of its instance", invalid == 0,
		"%d instances decided a value none of their futures proposed", invalid)
	return r.led.insts
}

// latencyMs is an open-loop attempt's latency from its due time. A
// failed, refused or unresolved attempt misses any latency limit, so it
// enters as the whole timeline's worth of waiting.
func (r *loadRun) latencyMs(a openAttempt) float64 {
	if a.kind == resolvedOK {
		return ms(time.Duration(a.resolved - a.due))
	}
	return ms(time.Duration(cycles)*(r.sched.open+r.sched.closed) + grace)
}

// window is one latency window: its open-loop latencies and the host
// steal ticks sampled while its attempts were due.
type window struct {
	lat   dist
	steal int64
}

// windows splits each cycle's open-loop attempts, in due order, into as
// many equal windows as keep at least minWindow attempts in each (one
// window when there are fewer).
func (r *loadRun) windows() []window {
	period := max(1, int64(r.sched.open+r.sched.closed))
	var ws []window
	for lo := 0; lo < len(r.open); {
		cycle := (r.open[lo].due - r.start) / period
		hi := lo
		for hi < len(r.open) && (r.open[hi].due-r.start)/period == cycle {
			hi++
		}
		n := hi - lo
		k := max(1, n/minWindow)
		for w := 0; w < k; w++ {
			part := r.open[lo+w*n/k : lo+(w+1)*n/k]
			xs := make([]float64, 0, len(part))
			for _, a := range part {
				xs = append(xs, r.latencyMs(a))
			}
			ws = append(ws, window{lat: newDist(xs), steal: r.steal.between(part[0].due, part[len(part)-1].due)})
		}
		lo = hi
	}
	return ws
}

// quietest keeps the windows the host disturbed least (see
// quietIndices).
func quietest(ws []window) []window {
	steals := make([]int64, len(ws))
	for i, w := range ws {
		steals[i] = w.steal
	}
	var kept []window
	for _, i := range quietIndices(steals) {
		kept = append(kept, ws[i])
	}
	return kept
}

// windowStats is what the quietest latency windows of a run hold.
type windowStats struct {
	p50, tail []float64 // per kept window
	pct       float64   // the tail's percentile: 99, unless a window is too small
	all       int       // windows before the quietest were kept
	smallest  int       // attempts in the smallest kept window
}

// windowed returns, over the quietest windows, each window's p50 and
// tail percentile.
func (r *loadRun) windowed() windowStats {
	ws := r.windows()
	st := windowStats{pct: 99, all: len(ws)}
	for i, w := range quietest(ws) {
		v, p := w.lat.p99()
		st.p50, st.tail = append(st.p50, w.lat.at(50)), append(st.tail, v)
		st.pct = min(st.pct, p)
		if i == 0 || w.lat.n() < st.smallest {
			st.smallest = w.lat.n()
		}
	}
	return st
}

// report fills the end-to-end metrics and the accounting of a run. An
// attempt the harness never settled has no outcome, which fails the
// accounting check.
func (r *loadRun) report(o *outcome) {
	t := r.tally()
	o.attempted = t.attempted
	o.failed = t.failed + t.refused + t.unresolved
	o.checkf("every attempt is accounted for", t.ok+t.failed+t.refused+t.unresolved == t.attempted,
		"%d attempted, %d resolved, %d failed, %d refused, %d unresolved",
		t.attempted, t.ok, t.failed, t.refused, t.unresolved)
	ws := r.windowed()
	p50, p99 := ws.p50, ws.tail
	tput, quietCycles := parts{r.decidedPerS, r.cycleSteal}.quietMedian()
	o.metrics["throughput_per_s"] = tput
	o.metrics["latency_p50_ms"] = median(p50)
	o.metrics["max_rss_mb"] = r.maxRSS
	o.notef("timeline: %s closed-loop warm-up, then %d cycles of %s open-loop Poisson at %.0f/s and %s closed-loop with %d clients",
		r.sched.warm, cycles, r.sched.open, r.rate, r.sched.closed, closedClients)
	o.notef("latency from due time over %d open-loop attempts in %d windows, the %d with the least host steal kept (the smallest holds %d attempts): median of window p50s %.4g ms (range %.4g to %.4g), of window p%g %.4g ms (range %.4g to %.4g)",
		len(r.open), ws.all, len(p50), ws.smallest, median(p50), newDist(p50).at(0), newDist(p50).at(100),
		ws.pct, median(p99), newDist(p99).at(0), newDist(p99).at(100))
	o.notef("host steal over the cycles: %d clock ticks summed over CPUs (%.3g%% of %d CPUs' time)",
		r.steal.total(), 100*ratio(float64(r.steal.total())/ticksPerSecond,
			float64(goruntime.NumCPU())*(time.Duration(cycles)*(r.sched.open+r.sched.closed)).Seconds()), goruntime.NumCPU())
	o.notef("throughput: median over the %d of %d cycles with the least host steal of distinct instances decided per second of closed loop: %.6g (steal ticks %d)",
		quietCycles, len(r.decidedPerS), r.decidedPerS, r.cycleSteal)
	o.notef("attempts: %d resolved, %d failed, %d refused, %d unresolved of %d",
		t.ok, t.failed, t.refused, t.unresolved, t.attempted)
}

// spanOpen records the open-loop proposal spans: the proposal (due to
// resolution) and its generator lag, Propose call and Wait children.
func (r *loadRun) spanOpen(rec *recorder) {
	for _, a := range r.open {
		if a.kind != resolvedOK {
			continue
		}
		root := rec.id()
		rec.add(root, 0, "proposal", a.due, a.resolved, a.instance)
		rec.add(rec.id(), root, "generator_lag", a.due, a.submitted, 0)
		rec.add(rec.id(), root, "propose", a.submitted, a.proposed, 0)
		rec.add(rec.id(), root, "wait", a.proposed, a.resolved, 0)
	}
}

// reportWorkload fills the workload.* and service-intake metrics of a
// traced run.
func (r *loadRun) reportWorkload(o *outcome) {
	lags := make([]float64, 0, len(r.open))
	calls := make([]float64, 0, len(r.open))
	lat := make([]float64, 0, len(r.open))
	for _, a := range r.open {
		lags = append(lags, ms(time.Duration(a.submitted-a.due)))
		calls = append(calls, us(time.Duration(a.proposed-a.submitted)))
		lat = append(lat, r.latencyMs(a))
	}
	o.metrics["workload.gen_lag_p99_ms"] = newDist(lags).at(99)
	o.metrics["workload.offered_per_s"] = float64(len(r.open)) / (time.Duration(cycles) * r.sched.open).Seconds()
	o.metrics["service.propose_us_p99"] = newDist(calls).at(99)
	o.metrics["service.latency_p99_ms"] = median(r.windowed().tail)
	o.metrics["service.latency_p999_ms"] = newDist(lat).at(99.9)
}

// roundsPerDecision is the mean global decision round over decided
// instances: exactly t+2 on a quiet cluster.
func roundsPerDecision(insts map[uint64]instEntry) float64 {
	sum := 0
	for _, a := range insts {
		sum += int(a.round)
	}
	return ratio(float64(sum), float64(len(insts)))
}

// exactFloat renders a counter-derived ratio with every digit, so that
// an exact comparison of two renderings is an exact comparison of the
// values.
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
