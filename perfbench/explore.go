package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/pool"
	"indulgence/internal/sim"
)

// The explore workload's family: every serial run of A_{t+2} with n=6,
// t=2 over all receiver subsets (the CLI's `worst -mode all`). Its size
// and its worst case are fixed by the algorithm, not by the proposals.
const (
	exploreN, exploreT = 6, 2
	exploreRuns        = 461953
	exploreWorst       = 4
	// setupBlock is how many explorer set-ups one setup_s sample
	// averages: one set-up is too short to time alone.
	setupBlock = 2000
	// exploreSetupFirst is how many set-up samples precede the first
	// exploration.
	exploreSetupFirst = 3
)

// exploreConfig is the exploration of the seed's proposals: a seeded
// permutation of 1..n.
func exploreConfig(seed int64, f model.Factory) lowerbound.Config {
	perm := rand.New(rand.NewSource(seed)).Perm(exploreN)
	props := make([]model.Value, exploreN)
	for i, p := range perm {
		props[i] = model.Value(p + 1)
	}
	return lowerbound.Config{
		N: exploreN, T: exploreT,
		Synchrony: model.ES,
		Factory:   f,
		Proposals: props,
		Mode:      lowerbound.AllSubsets,
	}
}

// exploreSetup adds to setups reps samples of the explorer's fixed
// cost: building the factory and configuration and exploring the
// crash-free family (one run), each the mean over a block of
// setupBlock, in seconds.
func exploreSetup(seed int64, reps int, setups *parts) error {
	for b := 0; b < reps; b++ {
		steal0 := readSteal()
		t0 := time.Now()
		for i := 0; i < setupBlock; i++ {
			cfg := exploreConfig(seed, core.New(core.Options{}))
			cfg.MaxCrashes = -1
			res, err := lowerbound.Explore(cfg)
			if err != nil {
				return err
			}
			if res.Runs != 1 {
				return fmt.Errorf("crash-free exploration explored %d runs", res.Runs)
			}
		}
		setups.add(time.Since(t0).Seconds()/setupBlock, readSteal()-steal0)
	}
	return nil
}

// runExplore is the explore workload: the paper-reproduction path
// (sim, core, lowerbound, sched), with none of the live stack.
func runExplore(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	o.n, o.t = exploreN, exploreT
	// A few set-up samples come first and one follows each
	// exploration, so that setup_s spans the run like the other
	// metrics rather than one moment of the host.
	var setups parts
	if err := exploreSetup(cfg.seed, exploreSetupFirst, &setups); err != nil {
		return nil, err
	}

	var steps *stepMeter
	factory := core.New(core.Options{})
	if cfg.traced {
		steps = &stepMeter{}
		factory = steps.wrap(factory)
	}
	ecfg := exploreConfig(cfg.seed, factory)
	var walls parts
	var last *lowerbound.Result
	runs := 0
	steal := startSteal()
	p0 := readProc()
	// Explore until the next exploration would end past the measured
	// time, as far as the median so far predicts; at least once.
	for start := time.Now(); len(walls.xs) == 0 ||
		time.Since(start)+time.Duration(median(walls.xs)*float64(time.Millisecond)) <= cfg.measure; {
		t0 := now()
		res, err := lowerbound.Explore(ecfg)
		if err != nil {
			return nil, err
		}
		end := now()
		stolen := steal.between(t0, end)
		walls.add(ms(time.Duration(end-t0))-stolenMs(stolen), stolen)
		cfg.spans.add(cfg.spans.id(), 0, "explore", t0, end, 0)
		o.attempted++
		ok := res.Runs == exploreRuns && res.WorstRound == exploreWorst && !res.Undecided && res.PropertyViolation == nil
		if !ok {
			o.failed++
		}
		if last == nil {
			o.checkf("explore: exact run count, worst round t+2, no violation", ok,
				"runs %d (want %d), worst round %d (want %d), undecided %v, violation %v",
				res.Runs, exploreRuns, res.WorstRound, exploreWorst, res.Undecided, res.PropertyViolation)
		}
		last = res
		runs += res.Runs
		if err := exploreSetup(cfg.seed, 1, &setups); err != nil {
			return nil, err
		}
	}
	p1 := readProc()
	steal.stop()
	o.checkf("every exploration passes", o.failed == 0, "%d of %d explorations failed", o.failed, o.attempted)
	d := p0.to(p1)
	lat := newDist(walls.xs)
	wall, quiet := walls.quietMedian()
	setup, setupKept := setups.quietMedian()
	o.metrics["setup_s"] = setup
	o.metrics["throughput_per_s"] = exploreRuns / (wall / 1000)
	o.metrics["latency_p50_ms"] = wall
	o.metrics["max_rss_mb"] = maxRSSMB()
	o.notef("explorations: %d of n=%d t=%d all subsets, %d runs each, proposals %v, %d workers",
		len(walls.xs), exploreN, exploreT, last.Runs, ecfg.Proposals, pool.Workers(0, exploreRuns))
	o.notef("latency is one exploration's wall time net of host steal: median of the %d of %d explorations with the least host steal, range %.6g to %.6g ms over all; throughput is runs per second of that median exploration (steal ticks %d)",
		quiet, lat.n(), lat.at(0), lat.at(100), walls.steals)
	o.notef("setup: explorer set-up with a crash-free exploration, blocks of %d, %d before the explorations and one after each; setup_s is the median block mean over the %d of %d blocks with the least host steal (steal ticks %d)",
		setupBlock, exploreSetupFirst, setupKept, len(setups.xs), setups.steals)
	o.exact = append(o.exact,
		exactCounter{name: "lowerbound.runs", value: strconv.Itoa(last.Runs)},
		exactCounter{name: "lowerbound.worst_round", value: strconv.Itoa(int(last.WorstRound))},
		exactCounter{name: "lowerbound.witness", value: last.Witness.String(), perSeed: true})
	if steps != nil {
		o.metrics["lowerbound.runs"] = float64(last.Runs)
		o.metrics["lowerbound.worst_round"] = float64(last.WorstRound)
		o.metrics["lowerbound.cpu_per_wall"] = ratio(float64(d.cpu), float64(d.wall))
		o.metrics["core.step_us_per_decision"] = us(steps.busyTime()) / float64(runs)
		o.metrics["core.step_share"] = ratio(float64(steps.busyTime()), float64(d.cpu))
		d.report(o, float64(runs))
		runUs, err := simRunUs(ecfg.Proposals, last)
		if err != nil {
			return nil, err
		}
		o.metrics["sim.run_us"] = runUs
	}
	return o, nil
}

// simRunUs times serial Simulator.Run on the exploration's witness
// schedule: the median of blocks of 100 runs, per run.
func simRunUs(props []model.Value, res *lowerbound.Result) (float64, error) {
	sm := sim.NewSimulator()
	cfg := sim.Config{
		Synchrony: model.ES, Schedule: res.Witness, Proposals: props,
		Factory: core.New(core.Options{}), SkipTrace: true, SkipValidation: true,
	}
	var blocks []float64
	for b := 0; b < 21; b++ {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			r, err := sm.Run(cfg)
			if err != nil {
				return 0, err
			}
			if gdr, ok := r.GlobalDecisionRound(); !ok || gdr != res.WorstRound {
				return 0, fmt.Errorf("witness replay decided at round %d, exploration said %d", gdr, res.WorstRound)
			}
		}
		blocks = append(blocks, us(time.Since(t0))/100)
	}
	return median(blocks), nil
}
