package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/transport"
)

// svcMemRate is the open-loop rate of svc-mem: light load, about a
// twentieth of the closed-loop proposal peak, so a proposal's latency is
// the batcher's linger plus one instance's rounds. At 4000/s, where
// batches fill, two instances overlap and the p50 follows the host's
// steal time much more closely: in interleaved 3s phases of one
// process it rose 36% when steal reached 10%, against 18% at 1000/s
// when steal reached 19%.
const svcMemRate = 1000

// memSetupBlock is how many svc-mem builds one setup_s sample averages.
const memSetupBlock = 1000

// memStack is one single-process service on an in-memory hub.
type memStack struct {
	hub *transport.Hub
	svc *service.Service
}

func (s *memStack) close() error {
	err := s.svc.Close()
	_ = s.hub.Close() // the service already stopped every reader
	return err
}

// memProbes are the traced run's seams into svc-mem.
type memProbes struct {
	steps stepMeter
	links linkMeter
	reg   *metrics.Registry
	mu    sync.Mutex
	start map[uint64]int64 // instance -> OnInstance time, ns since origin
}

// buildMem builds the hub, its endpoints and the service; p, when
// non-nil, wraps the seams.
func buildMem(p *memProbes) (*memStack, error) {
	hub, err := transport.NewHub(svcN)
	if err != nil {
		return nil, err
	}
	eps := make([]transport.Transport, svcN)
	for i := range eps {
		if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
			_ = hub.Close()
			return nil, err
		}
	}
	cfg := service.Config{
		N: svcN, T: svcT,
		Factory:     core.New(core.Options{}),
		BaseTimeout: svcBaseTimeout,
		MaxBatch:    svcBatch,
		Linger:      svcLinger,
		MaxInflight: svcInflight,
	}
	if p != nil {
		cfg.Factory = p.steps.wrap(cfg.Factory)
		for i := range eps {
			eps[i] = p.links.wrap(eps[i])
		}
		cfg.Metrics = p.reg
		cfg.OnInstance = func(instance uint64, _ *runtime.Cluster) {
			t := now()
			p.mu.Lock()
			p.start[instance] = t
			p.mu.Unlock()
		}
	}
	svc, err := service.New(cfg, eps)
	if err != nil {
		_ = hub.Close()
		return nil, err
	}
	return &memStack{hub: hub, svc: svc}, nil
}

// runSvcMem is the svc-mem workload: the in-process frame path, round
// loop and batcher alone, with no journal, no sockets and no adaptation.
func runSvcMem(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	o.n, o.t = svcN, svcT
	var p *memProbes
	if cfg.traced {
		p = &memProbes{reg: metrics.NewRegistry(), start: map[uint64]int64{}}
	}
	// Half the set-up samples are taken before the load and half after
	// it, so that setup_s spans the run like the other metrics rather
	// than one moment of the host.
	var setups parts
	build := func() (*memStack, error) { return buildMem(p) }
	teardown := func(s *memStack) error { return s.close() }
	stack, err := setupRepeated(setupReps-setupReps/2, memSetupBlock, &setups, build, teardown)
	if err != nil {
		return nil, err
	}
	run, err := runLoad(func(ctx context.Context, _ int, v model.Value) (*service.Future, error) {
		return stack.svc.Propose(ctx, v)
	}, cfg.seed, svcMemRate, cfg.measure)
	if err != nil {
		_ = stack.close()
		return nil, err
	}
	if err := stack.close(); err != nil {
		return nil, fmt.Errorf("close service: %w", err)
	}
	run.report(o)
	insts := run.instances(o)
	st := stack.svc.Snapshot()
	o.checkf("no check.Instance violations", len(st.Violations) == 0, "%s", strings.Join(st.Violations, "; "))
	t := run.tally()
	o.checkf("service counters match the harness", st.Proposals == t.attempted-t.refused &&
		st.Resolved >= t.ok && st.Resolved+st.Failed == st.Proposals,
		"service saw %d proposals (%d resolved, %d failed); harness accepted %d, %d resolved",
		st.Proposals, st.Resolved, st.Failed, t.attempted-t.refused, t.ok)
	if p != nil {
		reportMemTrace(o, run, insts, st, p, cfg.spans)
	}
	last, err := setupRepeated(setupReps/2, memSetupBlock, &setups, build, teardown)
	if err != nil {
		return nil, err
	}
	if err := last.close(); err != nil {
		return nil, fmt.Errorf("close service: %w", err)
	}
	setup, kept := setups.quietMedian()
	o.metrics["setup_s"] = setup
	o.notef("setup: hub, %d endpoints and service.New (torn down with Close between builds), %d blocks of %d before the load and %d after it; setup_s is the median block mean over the %d blocks with the least host steal (steal ticks %d)",
		svcN, setupReps-setupReps/2, memSetupBlock, setupReps/2, kept, setups.steals)
	return o, nil
}

// reportMemTrace fills svc-mem's per-layer metrics and spans.
func reportMemTrace(o *outcome, run *loadRun, insts map[uint64]instEntry, st service.Stats, p *memProbes, rec *recorder) {
	decided := float64(len(insts))
	run.reportWorkload(o)
	run.spanOpen(rec)
	// Instance spans run from OnInstance to the instance's first
	// resolution; queueing is due time to instance start.
	p.mu.Lock()
	for inst, start := range p.start {
		if e, ok := insts[inst]; ok {
			rec.add(rec.id(), 0, "instance", start, e.first, inst)
		}
	}
	var queue []float64
	for _, a := range run.open {
		if start, ok := p.start[a.instance]; ok && a.kind == resolvedOK {
			queue = append(queue, ms(time.Duration(start-a.due)))
		}
	}
	p.mu.Unlock()
	o.metrics["service.queue_ms_p50"] = median(queue)
	reportServiceStats(o, []service.Stats{st})
	o.metrics["service.proposals_per_decision"] = float64(run.tally().ok) / decided
	o.metrics["runtime.rounds_per_decision"] = roundsPerDecision(insts)
	o.metrics["core.step_us_per_decision"] = us(p.steps.busyTime()) / decided
	o.metrics["fd.suspicions_per_decision"] = ratio(float64(counterSum(p.reg.Text(), "indulgence_suspicions_total")), decided)
	p.links.report(o, decided)
	run.proc.report(o, decided)
	o.metrics["wire.codec_ns_per_frame"] = codecNsPerFrame(p.links.frameSample())
}

// reportServiceStats fills the service.* and runtime.* metrics a
// Snapshot carries, over one or more service members.
func reportServiceStats(o *outcome, sts []service.Stats) {
	fails := 0
	var fill, dec, round []float64
	for _, st := range sts {
		fails += st.InstanceFailures
		fill = append(fill, st.BatchFill.Mean)
		dec = append(dec, ms(st.DecisionLatency.P50))
		round = append(round, ms(st.RoundLatency.P50))
	}
	o.metrics["service.decision_ms_p50"] = median(dec)
	o.metrics["service.batch_fill_pct"] = median(fill)
	o.metrics["service.instance_failures"] = float64(fails)
	o.metrics["runtime.round_ms_p50"] = median(round)
}

// setupRepeated adds to setups reps samples of block builds each, the
// mean build time of each in seconds, tearing down every build but the
// last (untimed), and returns the last build. Blocks average set-ups
// too short to time one at a time; each sample starts from a collected
// heap. setup_s is the quiet median of the samples.
func setupRepeated[S any](reps, block int, setups *parts, build func() (S, error), teardown func(S) error) (S, error) {
	var s S
	built := false
	for i := 0; i < reps; i++ {
		goruntime.GC()
		steal0 := readSteal()
		var total time.Duration
		for b := 0; b < block; b++ {
			if built {
				if err := teardown(s); err != nil {
					return s, fmt.Errorf("tear down setup: %w", err)
				}
			}
			t0 := time.Now()
			var err error
			if s, err = build(); err != nil {
				return s, fmt.Errorf("setup: %w", err)
			}
			total += time.Since(t0)
			built = true
		}
		setups.add(total.Seconds()/float64(block), readSteal()-steal0)
	}
	return s, nil
}
