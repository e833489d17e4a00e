package service

import (
	"context"
	"fmt"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/check"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// runInstance executes the local members' share of one consensus
// instance for a batch of proposals: it opens the instance's virtual
// endpoint on every local mux, spreads the batch's values round-robin
// over the local members as their proposals (NoopValue for a joined
// slot with an empty batch), runs a fresh runtime.Cluster of the local
// members under the instance's algorithm choice (the selector's pick, or
// the static configuration), audits the outcome with check.Instance when
// every member is local, and resolves the batch's futures. The instance
// slot is released once the local nodes are done, unblocking the next
// queued batch.
func (s *Service) runInstance(instance uint64, batch []*pending, choice adapt.Choice, joined bool) {
	defer s.wg.Done()
	if s.remote {
		defer func() {
			s.activeMu.Lock()
			delete(s.active, instance)
			s.activeMu.Unlock()
		}()
	}
	begin := s.cfg.Clock.Now()
	// The instance slot bounds concurrent consensus runs — round loops,
	// detectors, in-flight frames. It is released as soon as the run is
	// over (releaseSlot below), before the journal fsync and future
	// resolution, so durability latency overlaps the next instance's
	// consensus instead of throttling slot turnover.
	slotHeld := true
	releaseSlot := func() {
		if slotHeld {
			slotHeld = false
			<-s.slots
		}
	}
	defer releaseSlot()
	retire := func() {
		for _, m := range s.muxes {
			m.RetireGroup(s.cfg.Group, instance)
		}
	}

	eps := make([]transport.Transport, s.cfg.N)
	props := make([]model.Value, s.cfg.N)
	for k, m := range s.muxes {
		ep, err := m.OpenGroup(s.cfg.Group, instance)
		if err != nil {
			retire()
			// A join can race the slot's retirement (one stale signal
			// after the instance finished): not a failure, nothing to
			// do. An instance with proposals aboard losing its endpoint
			// is one.
			if !joined || len(batch) > 0 {
				s.failInstance(batch, fmt.Errorf("service: open instance %d on p%d: %w", instance, m.Self(), err))
			}
			return
		}
		id := m.Self()
		eps[id-1] = ep
		props[id-1] = NoopValue
		if len(batch) > 0 {
			props[id-1] = batch[k%len(batch)].value
		}
	}
	cl, err := runtime.New(runtime.Config{
		N: s.cfg.N, T: s.cfg.T,
		Factory:     choice.Factory,
		Proposals:   props,
		Endpoints:   eps,
		Members:     s.local,
		WaitPolicy:  choice.WaitPolicy,
		BaseTimeout: s.cfg.BaseTimeout,
		MaxRounds:   s.cfg.MaxRounds,
		Clock:       s.cfg.Clock,
		Suspicions:  s.mSuspicions,
	})
	if err != nil {
		retire()
		s.failInstance(batch, fmt.Errorf("service: instance %d: %w", instance, err))
		return
	}
	if s.cfg.OnInstance != nil {
		s.cfg.OnInstance(instance, cl)
	}
	// A joined slot carrying no local futures may fail quietly and soon;
	// anything with real proposals aboard gets the full deadline.
	deadline := s.cfg.InstanceTimeout
	if joined && len(batch) == 0 {
		deadline = s.cfg.JoinTimeout
	}
	ctx, cancel := clock.WithTimeout(s.runCtx, s.cfg.Clock, deadline)
	results, runErr := s.runNodes(ctx, cl)
	if !s.remote {
		cancel()
		retire()
	}
	releaseSlot()
	decided := s.resolve(instance, batch, choice, joined, begin, props, results, runErr)
	if s.remote {
		// Peers may be a round or two behind: a decided instance keeps
		// its local nodes flooding DECIDE for the flood grace before they
		// stop and the instance retires. Local futures resolved at the
		// local decision, not after the grace.
		if decided {
			grace := s.cfg.Clock.NewTimer(floodGraceTimeouts * s.cfg.BaseTimeout)
			select {
			case <-grace.C():
			case <-s.runCtx.Done():
				grace.Stop()
			}
		}
		cl.Stop()
		cancel()
		retire()
	}
}

// runNodes runs the instance's local nodes until each has delivered its
// result or ctx ends. With every member local the cluster stops here
// (runtime.Cluster.Run); with remote members the nodes keep running —
// and flooding DECIDE — until the caller stops them.
func (s *Service) runNodes(ctx context.Context, cl *runtime.Cluster) ([]runtime.NodeResult, error) {
	if !s.remote {
		return cl.Run(ctx)
	}
	if err := cl.Start(ctx); err != nil {
		return nil, err
	}
	var results []runtime.NodeResult
	for len(results) < s.local.Len() {
		select {
		case res := <-cl.Decisions():
			results = append(results, res)
		case <-ctx.Done():
			return results, ctx.Err()
		}
	}
	return results, nil
}

// resolve turns the local nodes' results into the instance's outcome:
// it audits the instance (every member local only), journals the
// decision before any future resolves, resolves the batch's futures and
// accounts the instance. It reports whether the instance decided.
func (s *Service) resolve(instance uint64, batch []*pending, choice adapt.Choice, joined bool, begin time.Time, props []model.Value, results []runtime.NodeResult, runErr error) bool {
	decisions := make([]model.OptValue, s.cfg.N)
	var crashed model.PIDSet
	var (
		value      model.Value
		round      model.Round
		have       bool
		suspicions int
	)
	for _, r := range results {
		decisions[r.ID-1] = r.Decision
		suspicions += r.Suspicions
		if r.Crashed {
			crashed.Add(r.ID)
		}
		if v, ok := r.Decision.Get(); ok {
			if !have {
				value, have = v, true
			}
			if r.Round > round {
				round = r.Round
			}
		}
	}
	if !have {
		if runErr == nil {
			runErr = fmt.Errorf("service: instance %d reached no decision", instance)
		}
		s.failInstance(batch, fmt.Errorf("service: instance %d: %w", instance, runErr))
		return false
	}
	decided := s.cfg.Clock.Since(begin)
	var rep check.Report
	if !s.remote {
		// An instance cancelled by service shutdown (Abort, or a Close
		// racing a kill) had its undecided nodes die with the service —
		// that is a crash-stop, not a termination violation, so they are
		// excused the way crash-injected processes are. Safety is still
		// audited in full.
		if runErr != nil && s.runCtx.Err() != nil {
			for i, d := range decisions {
				if _, ok := d.Get(); !ok {
					crashed.Add(model.ProcessID(i + 1))
				}
			}
		}
		rep = check.Instance(decisions, props, crashed)
	}

	// The batch's SLO class is its highest member class: the instance did
	// that class's work, so the journal record and decision carry it.
	batchClass := 0
	for _, p := range batch {
		if p.class > batchClass {
			batchClass = p.class
		}
	}
	// A joined slot's noop is a real proposal, so the record never
	// claims an impossible batch of 0.
	size := max(len(batch), 1)

	// Journal-before-complete: the decision record must be durable
	// before any future resolves, so a crash can lose an
	// acknowledgement but never an acknowledged decision. A journal
	// failure fails the batch — clients retry onto a fresh instance —
	// because resolving an unjournaled decision would let a restart
	// re-run the instance.
	if s.cfg.Journal != nil {
		rec := wire.DecisionRecord{Instance: instance, Value: value, Round: round, Batch: size, Group: s.cfg.Group, Class: batchClass}
		if err := s.cfg.Journal.Append(rec); err != nil {
			s.failInstance(batch, fmt.Errorf("service: journal instance %d: %w", instance, err))
			return false
		}
	}

	dec := Decision{Instance: instance, Value: value, Round: round, Batch: size, Class: batchClass}
	now := s.cfg.Clock.Now()
	var latencies []time.Duration
	for _, p := range batch {
		latencies = append(latencies, now.Sub(p.enqueued))
		p.fut.resolve(dec, nil)
	}

	s.countMu.Lock()
	s.instances++
	if joined {
		s.joined++
	}
	s.resolved += len(batch)
	if batchClass > s.maxClass {
		s.maxClass = batchClass
	}
	for i, l := range latencies {
		s.latencies.Add(l)
		s.mPropLat.Observe(int64(l))
		c := batch[i].class
		s.resolvedBy[c]++
		if s.classLat[c] == nil {
			s.classLat[c] = stats.NewReservoirSeeded[time.Duration](1024, uint64(c)+1)
		}
		s.classLat[c].Add(l)
	}
	s.rounds.Add(int(round))
	s.instLat.Add(decided)
	s.mDecLat.Observe(int64(decided))
	if round > 0 {
		s.roundLat.Add(decided / time.Duration(round))
	}
	if choice.Name != "" {
		s.algs[choice.Name]++
		s.roundsHist(choice.Name).Observe(int64(round))
	}
	for _, v := range rep.Violations {
		s.violations = append(s.violations,
			fmt.Sprintf("instance %d: %s", instance, v))
	}
	s.countMu.Unlock()
	s.mDecisions.Inc()
	s.mResolved.Add(int64(len(batch)))
	if s.plane != nil {
		s.plane.ObserveDecision(latencies, suspicions)
	}
	return true
}

// failInstance resolves a batch's futures with err and records the
// failure — a missed decision the selector treats as the strongest
// distrust signal. A joined slot fails with an empty batch: only the
// counters move.
func (s *Service) failInstance(batch []*pending, err error) {
	failBatch(batch, err)
	if s.plane != nil {
		s.plane.ObserveFailure()
	}
	s.countMu.Lock()
	s.instanceFail++
	s.failed += len(batch)
	s.countMu.Unlock()
	s.mInstFail.Inc()
	s.mFailed.Add(int64(len(batch)))
}
