// Package service is the consensus-as-a-service layer: it multiplexes
// many concurrent consensus instances over a single cluster of live
// processes. Clients hand proposals to Propose and get back a Future;
// the service batches proposals (up to MaxBatch, waiting at most Linger),
// assigns each batch to a fresh consensus instance, and runs up to
// MaxInflight instances concurrently, each as its own runtime.Cluster
// over virtual endpoints of per-process transport.Muxes. Every instance
// therefore gets its own round loops, timeout detectors and wait policy,
// while all instances share one set of physical connections — one Hub
// mailbox or one TCP connection per ordered process pair.
//
// The decided value of an instance is, by validity, the proposal of one
// of the batch's members (proposals are spread round-robin over the n
// processes); the whole batch commits with that instance, so every
// member's Future resolves to the same Decision. Each resolved instance
// is audited with check.Instance, and any violation — which the paper
// proves cannot happen, and which the service therefore treats as a
// defect detector — is retained in the Stats snapshot.
//
// With a journal configured, every decision is made durable before its
// futures resolve (journal-before-complete), and a restarted service
// recovers from the log: it serves journaled decisions via Lookup
// without re-running consensus and resumes its instance-ID frontier past
// the highest journaled instance, so the paper's per-decision price is
// paid once per decision, not once per process lifetime.
//
// The service's local members are the endpoints (or muxes) handed to its
// constructor. With all N of them local it is the single-process service
// described above. With a subset — typically one, in a deployment that
// runs one `indulgence serve -peers` per OS process — the other members
// run elsewhere and are reached through the transport: instance IDs
// become slots shared cluster-wide, a member joins a slot when the mux
// reports inbound frames for one it has not opened (proposing NoopValue
// when nothing is queued locally), local futures resolve at the local
// decision, and a decided instance keeps flooding DECIDE for a grace
// period so slower peers still decide. The live check.Instance audit
// needs every member's proposal and decision, so it runs only when all
// members are local; check.Replay over the members' journals is the
// cross-member audit.
//
// This is where the paper's "price of indulgence" becomes a service-level
// quantity: decisions per second and per-proposal latency under injected
// asynchrony, with the t+2 round floor visible as the latency baseline of
// every instance.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// ErrClosed reports use of a closed service.
var ErrClosed = errors.New("service: closed")

// Config describes a consensus service.
type Config struct {
	// N and T describe the underlying system; T bounds tolerated crashes.
	N, T int
	// Factory builds each process's algorithm, once per instance.
	Factory model.Factory
	// WaitPolicy selects the receive discipline (default WaitUnsuspected).
	WaitPolicy core.WaitPolicy
	// BaseTimeout is the initial per-process suspicion timeout of every
	// instance (default 25ms).
	BaseTimeout time.Duration
	// MaxRounds aborts an instance's node after this many rounds
	// (default 256).
	MaxRounds model.Round
	// MaxBatch is the largest number of proposals decided by one instance
	// (default 8).
	MaxBatch int
	// Linger is how long an under-full batch waits for more proposals
	// before it is cut (default 2ms).
	Linger time.Duration
	// MaxInflight bounds the number of concurrently running instances
	// (default 16). When every slot is busy, batches queue.
	MaxInflight int
	// InstanceTimeout is the per-instance deadline (default 30s). An
	// instance that misses it fails its batch's futures.
	InstanceTimeout time.Duration
	// JoinTimeout is the deadline of a slot joined on a peer's signal
	// with no local proposals aboard (default 10s; only a service with
	// remote members joins). Such a slot carries no futures, so a join
	// that never decides — stale flood traffic from before a restart, or
	// a cluster that lost too many members — fails quietly after this
	// long instead of holding an instance slot for InstanceTimeout.
	JoinTimeout time.Duration
	// Journal, when non-nil, makes decisions durable: every instance's
	// decision record is appended and fsynced (group-committed across
	// concurrent instances) before the batch's futures resolve —
	// journal-before-complete — and the service resumes its instance-ID
	// frontier past the highest journaled instance, so a restarted
	// service never re-runs an instance it already decided. The journal
	// is owned by the caller and is not closed by Close.
	Journal *journal.Journal
	// Adaptive, when non-nil, attaches the feedback control plane
	// (internal/adapt): MaxBatch and Linger become the controller's
	// starting point instead of fixed constants, saturation sheds
	// proposals with adapt.ErrOverload, and — with SelectAlgorithms —
	// every instance runs the algorithm the selector currently trusts,
	// its choice journaled in the instance's start claim. The intake
	// buffer is sized to the controller's batch ceiling. A service with
	// remote members rejects SelectAlgorithms: one member cannot switch
	// the protocol of a slot it shares with its peers.
	Adaptive *adapt.Config
	// OnInstance, when non-nil, is invoked on the instance goroutine
	// after the instance's cluster is assembled and immediately before
	// its rounds start — the fault-injection and observability hook the
	// live experiments and the chaos harness use to crash processes or
	// delay links of a specific instance. The hook may retain cl to
	// inject faults for as long as the instance runs (Crash is safe at
	// any point of the cluster's lifetime, and is a no-op once the
	// instance has stopped), but must not call cl's run/stop methods.
	OnInstance func(instance uint64, cl *runtime.Cluster)
	// Clock is the time source for batching lingers, instance deadlines,
	// latency accounting and the control loop (default the wall clock).
	// The chaos harness injects a virtual clock here and threads it
	// through every instance's runtime cluster.
	Clock clock.Clock
	// Metrics, when non-nil, registers the service's instruments on this
	// registry, every series labelled with the service's group:
	// proposal/decision/failure counters, suspicion events (threaded down
	// to every instance's timeout detectors), proposal- and
	// decision-latency histograms, and — the paper's price gap as a live
	// series — indulgence_rounds_per_decision histograms per algorithm
	// rung. The registry is shared with the adaptive control plane, and —
	// for a service that owns its muxes — with per-group frame counters.
	// Snapshots of the registry are pure functions of the event schedule
	// when the service runs on a virtual clock (see internal/metrics).
	Metrics *metrics.Registry
	// Group and Groups place the service in a sharded deployment
	// (internal/shard): the service runs consensus group Group of Groups
	// total, and owns the strided slice of the global instance-ID space
	// congruent to Group modulo Groups — group g of G assigns instances
	// g, g+G, g+2G, … — so every group's IDs are globally unique and
	// check.Replay can treat an instance ID under two groups as a
	// violation. The defaults (0 and 1) are the single-group service,
	// whose instance IDs and wire frames are unchanged from before
	// groups existed.
	Group  uint64
	Groups int
}

// NoopValue is what a local member proposes in a slot it joined with
// nothing queued: MaxInt64, the identity of the min-based estimate
// adoption the paper's algorithms use, so a noop loses to every real
// proposal and wins only a slot in which every proposer proposed one.
const NoopValue = model.Value(math.MaxInt64)

// floodGraceTimeouts is how many base suspicion timeouts a decided
// instance with remote members keeps flooding DECIDE before it retires,
// so peers whose nodes are a round or two behind still satisfy their
// wait policies.
const floodGraceTimeouts = 6

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 25 * time.Millisecond
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Linger == 0 {
		cfg.Linger = 2 * time.Millisecond
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 16
	}
	if cfg.InstanceTimeout == 0 {
		cfg.InstanceTimeout = 30 * time.Second
	}
	if cfg.JoinTimeout == 0 {
		cfg.JoinTimeout = 10 * time.Second
	}
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	cfg.Clock = clock.Or(cfg.Clock)
	return cfg
}

// Decision is the resolution of a proposal: the instance it was batched
// into and the value that instance decided.
type Decision struct {
	// Instance identifies the consensus instance that committed the batch.
	Instance uint64
	// Value is the instance's decided value (the chosen batch member).
	Value model.Value
	// Round is the instance's global decision round — the slowest
	// process's decision round, where the t+2 floor shows.
	Round model.Round
	// Batch is the number of proposals committed by the instance.
	Batch int
	// Class is the highest SLO class among the batch's proposals (0 for
	// unclassed traffic) — the class the instance was journaled under.
	Class int
}

// Future resolves to the Decision of the instance a proposal was batched
// into.
type Future struct {
	done chan struct{}
	dec  Decision
	err  error
}

// Wait blocks until the proposal's instance resolves or ctx is done.
func (f *Future) Wait(ctx context.Context) (Decision, error) {
	select {
	case <-f.done:
		return f.dec, f.err
	case <-ctx.Done():
		return Decision{}, ctx.Err()
	}
}

// resolve fills the future exactly once.
func (f *Future) resolve(dec Decision, err error) {
	f.dec, f.err = dec, err
	close(f.done)
}

// pending is one enqueued proposal.
type pending struct {
	value    model.Value
	class    int
	enqueued time.Time
	fut      *Future
}

// Stats is a point-in-time snapshot of service counters.
type Stats struct {
	// Proposals counts accepted proposals; Resolved and Failed partition
	// the ones whose futures have fired.
	Proposals, Resolved, Failed int
	// Instances counts decided instances; InstanceFailures counts
	// instances that timed out or errored without a decision.
	Instances, InstanceFailures int
	// JoinedInstances counts instances this service adopted on a peer's
	// signal rather than initiating (always 0 when every member is
	// local).
	JoinedInstances int
	// Violations lists every consensus-property violation detected by
	// check.Instance over resolved instances — validity, agreement, and
	// termination (a correct process undecided at instance end, e.g. on
	// an instance timeout). The paper's theorems say the safety entries
	// stay empty; the service checks anyway. Only a service whose members
	// are all local audits live (see check.Replay for the rest).
	Violations []string
	// Latency summarizes per-proposal latency (enqueue to resolution)
	// over a bounded uniform sample of the service's lifetime (the
	// retained history is capped, so Count may be below Resolved on very
	// long runs).
	Latency stats.LatencySummary
	// Rounds summarizes global decision rounds across decided instances —
	// the t+2 price floor in round units — over the same kind of bounded
	// sample.
	Rounds stats.Summary
	// DecisionLatency summarizes per-instance latency from batch cut to
	// decision — the consensus cost alone, with queueing and linger
	// excluded — over the same kind of bounded sample.
	DecisionLatency stats.LatencySummary
	// RoundLatency summarizes the wall-clock cost of one round
	// (per-instance decision latency divided by its decision round):
	// the quantity that turns the paper's round prices into seconds.
	RoundLatency stats.LatencySummary
	// BatchFill summarizes the fill of cut batches as a percentage of
	// the effective batch limit at each cut (can exceed 100 when the
	// controller shrank the limit under a filling batch).
	BatchFill stats.Summary
	// Overloads counts proposals shed by admission control with
	// adapt.ErrOverload (always 0 without an adaptive config).
	Overloads int
	// OverloadsByClass splits Overloads per SLO class (index = class;
	// length = highest class the service has seen + 1).
	OverloadsByClass []int
	// ResolvedByClass splits Resolved per SLO class.
	ResolvedByClass []int
	// ClassLatency summarizes per-proposal latency per SLO class over
	// the same kind of bounded sample as Latency.
	ClassLatency []stats.LatencySummary
	// Control is the adaptive control plane's snapshot: the current
	// effective batch/linger, adjustment and transition counts, and the
	// selector's current algorithm. Zero when the service runs static.
	Control adapt.Stats
	// Algorithms counts decided instances per algorithm name (the
	// statically configured algorithm's name when selection is off, as
	// probed from the factory; empty names are not counted).
	Algorithms map[string]int
}

// Service multiplexes consensus instances over one live cluster.
type Service struct {
	cfg Config
	// muxes holds one mux per local member, in ascending member order;
	// local is their member set and remote reports that some member
	// runs elsewhere.
	muxes  []*transport.Mux
	local  model.PIDSet
	remote bool
	// ownsMuxes reports whether Close/Abort shut the muxes down: true
	// when New built them, false when a shard runtime shares one set of
	// muxes across many group services (NewOnMuxes).
	ownsMuxes bool
	// stride is uint64(cfg.Groups): the service's instance IDs advance
	// by it, keeping every assigned ID congruent to cfg.Group.
	stride uint64

	// static is the fallback algorithm choice built from Config (its
	// Name probed from the factory); plane is the adaptive control
	// plane, nil for a statically configured service.
	static adapt.Choice
	plane  *adapt.Plane

	intake      chan *pending
	joins       chan uint64
	slots       chan struct{}
	runCtx      context.Context
	runCancel   context.CancelFunc
	batcherDone chan struct{}
	wg          sync.WaitGroup

	// mu guards closed: Propose holds it for reading across the intake
	// send so Close never closes the channel under a sender.
	mu     sync.RWMutex
	closed bool

	// activeMu guards active, the instances currently running locally
	// (tracked only with remote members): join signals are deduped
	// against it.
	activeMu sync.Mutex
	active   map[uint64]struct{}

	// nextInstance and claimedThrough are touched only by the batcher
	// goroutine. nextInstance starts at the journal's recovered
	// frontier, so instance IDs are unique across process lifetimes;
	// claimedThrough is the first instance ID not yet covered by a
	// journaled start claim (IDs are claimed in MaxInflight-sized
	// blocks, so a crash wastes at most one block of IDs).
	nextInstance   uint64
	claimedThrough uint64

	// countMu guards the counters, which instance goroutines update while
	// proposers hold mu only for reading.
	countMu      sync.Mutex
	proposals    int
	resolved     int
	failed       int
	instances    int
	joined       int
	instanceFail int
	overloads    int
	violations   []string
	latencies    *stats.Reservoir[time.Duration]
	rounds       *stats.Reservoir[int]
	instLat      *stats.Reservoir[time.Duration]
	roundLat     *stats.Reservoir[time.Duration]
	fills        *stats.Reservoir[int]
	algs         map[string]int
	// Per-class accounting (index = SLO class). maxClass is the highest
	// class any proposal has carried; Snapshot trims the exported
	// slices to it. classLat reservoirs allocate lazily per class.
	maxClass    int
	overloadsBy [adapt.MaxClasses]int
	resolvedBy  [adapt.MaxClasses]int
	classLat    [adapt.MaxClasses]*stats.Reservoir[time.Duration]

	// Registry instruments (nil without Config.Metrics; nil instruments
	// no-op). algHist holds the per-algorithm rounds-per-decision
	// histograms, registered lazily at an algorithm's first decision;
	// countMu guards it.
	reg           *metrics.Registry
	metricsLabels []metrics.Label
	mProposals    *metrics.Counter
	mResolved     *metrics.Counter
	mFailed       *metrics.Counter
	mDecisions    *metrics.Counter
	mInstFail     *metrics.Counter
	mSuspicions   *metrics.Counter
	mPropLat      *metrics.Histogram
	mDecLat       *metrics.Histogram
	algHist       map[string]*metrics.Histogram
}

// maxSamples bounds the latency/round history a long-running service
// retains: summaries are computed over a uniform reservoir sample of the
// stream (stats.Reservoir), so memory and Snapshot cost stay constant
// while the percentiles stay unbiased over the whole lifetime.
const maxSamples = 1 << 16

// New starts a service over the endpoints of its local members: all N
// of them (endpoints[i] answering Self() == i+1) for the single-process
// service, or any non-empty subset in ascending Self() order for a
// service whose other members run elsewhere. The service wraps each
// endpoint in a transport.Mux and owns all reads from it; the endpoints
// themselves remain owned by the caller and are not closed by Close.
func New(cfg Config, endpoints []transport.Transport) (*Service, error) {
	selves := make([]model.ProcessID, len(endpoints))
	for i, ep := range endpoints {
		if ep == nil {
			return nil, fmt.Errorf("service: endpoint %d is nil", i+1)
		}
		selves[i] = ep.Self()
	}
	s, err := newService(cfg, selves)
	if err != nil {
		return nil, err
	}
	// With a remote member the mux's pending signal is the join signal:
	// a peer started a slot this service has not opened yet.
	var onPending func(group, instance uint64)
	if s.remote {
		onPending = func(group, instance uint64) {
			if group == s.cfg.Group {
				s.Join(instance)
			}
		}
	}
	s.muxes = make([]*transport.Mux, len(endpoints))
	for i, ep := range endpoints {
		s.muxes[i] = transport.NewMuxGroupNotify(ep, onPending)
	}
	s.ownsMuxes = true
	s.start()
	return s, nil
}

// NewOnMuxes starts a service over already-built muxes, one per local
// member under the same ordering rules as New — the sharded runtime's
// constructor, where many group services (each with its own cfg.Group)
// multiplex over one set of muxes per member process. The muxes stay
// owned by the caller: Close and Abort leave them open, and the service
// confines itself to its group's streams (OpenGroup / RetireGroup under
// cfg.Group), so sibling groups never observe it. Join signals are the
// caller's to deliver: whoever owns the muxes' pending callback routes
// each (group, instance) signal to the owning service's Join.
func NewOnMuxes(cfg Config, muxes []*transport.Mux) (*Service, error) {
	selves := make([]model.ProcessID, len(muxes))
	for i, m := range muxes {
		selves[i] = m.Self()
	}
	s, err := newService(cfg, selves)
	if err != nil {
		return nil, err
	}
	s.muxes = muxes
	s.start()
	return s, nil
}

// PeerOptions and PeerService name the one-local-member shape of Config
// and Service.
type (
	PeerOptions = Config
	PeerService = Service
)

// NewPeer starts a service whose only local member is ep: one member of
// an n-process cluster whose other members run in other OS processes.
func NewPeer(cfg PeerOptions, n int, ep transport.Transport) (*PeerService, error) {
	cfg.N = n
	return New(cfg, []transport.Transport{ep})
}

// newService validates cfg and the local members' IDs and builds
// everything but the muxes, which New and NewOnMuxes attach before
// calling start.
func newService(cfg Config, selves []model.ProcessID) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		return nil, fmt.Errorf("service: need at least 2 processes, got %d", cfg.N)
	}
	if len(selves) == 0 {
		return nil, errors.New("service: no local member")
	}
	var local model.PIDSet
	for i, id := range selves {
		if id < 1 || int(id) > cfg.N || (i > 0 && id <= selves[i-1]) {
			return nil, fmt.Errorf("service: local member %d answers Self()=%d (want distinct IDs in 1..%d, ascending)", i+1, id, cfg.N)
		}
		local.Add(id)
	}
	remote := local.Len() < cfg.N
	if cfg.Factory == nil {
		return nil, errors.New("service: nil factory")
	}
	if cfg.Groups < 1 || cfg.Group >= uint64(cfg.Groups) {
		return nil, fmt.Errorf("service: group %d out of range for %d groups", cfg.Group, cfg.Groups)
	}
	if remote && cfg.Adaptive != nil && cfg.Adaptive.SelectAlgorithms {
		return nil, errors.New("service: a service with remote members cannot select algorithms per instance (the protocol of a shared slot is cluster-wide)")
	}
	static := adapt.Choice{
		Name:       adapt.ProbeName(cfg.Factory, cfg.N, cfg.T),
		Factory:    cfg.Factory,
		WaitPolicy: cfg.WaitPolicy,
	}
	labels := []metrics.Label{{Key: "group", Value: strconv.FormatUint(cfg.Group, 10)}}
	var plane *adapt.Plane
	// The intake buffer must track the batch ceiling the batcher can
	// actually cut at — the controller's MaxBatch when adaptive, the
	// static MaxBatch otherwise. Sizing it from the static product alone
	// would re-introduce intake backpressure exactly when the controller
	// grows the batch to absorb a burst.
	ceiling := cfg.MaxBatch
	if cfg.Adaptive != nil {
		// The control plane observes on the service's clock unless the
		// caller injected its own: one clock drives lingers, deadlines
		// and controller windows alike, so a virtual-time run is
		// adaptive end to end.
		ac := *cfg.Adaptive
		if ac.Now == nil {
			ac.Now = cfg.Clock.Now
		}
		if cfg.Metrics != nil && ac.Metrics == nil {
			ac.Metrics, ac.MetricsLabels = cfg.Metrics, labels
		}
		plane = adapt.NewPlane(ac, static,
			adapt.Setting{Batch: cfg.MaxBatch, Linger: cfg.Linger}, cfg.N, cfg.T)
		if c := plane.BatchCeiling(); c > ceiling {
			ceiling = c
		}
	}
	// Reservoir seeds: the all-local service seeds by group; with remote
	// members the lowest local member is folded in, so single-member
	// services sharing one OS process draw distinct streams.
	seed := cfg.Group
	if remote {
		seed = seed<<8 | uint64(selves[0])
	}
	s := &Service{
		cfg:         cfg,
		local:       local,
		remote:      remote,
		stride:      uint64(cfg.Groups),
		static:      static,
		plane:       plane,
		intake:      make(chan *pending, ceiling*cfg.MaxInflight),
		slots:       make(chan struct{}, cfg.MaxInflight),
		batcherDone: make(chan struct{}),
		latencies:   stats.NewReservoirSeeded[time.Duration](maxSamples, seed<<3|0),
		rounds:      stats.NewReservoirSeeded[int](maxSamples, seed<<3|1),
		instLat:     stats.NewReservoirSeeded[time.Duration](maxSamples, seed<<3|2),
		roundLat:    stats.NewReservoirSeeded[time.Duration](maxSamples, seed<<3|3),
		fills:       stats.NewReservoirSeeded[int](maxSamples, seed<<3|4),
		algs:        make(map[string]int),
	}
	if remote {
		s.joins = make(chan uint64, 256)
		s.active = make(map[uint64]struct{})
	}
	reg := cfg.Metrics
	s.reg = reg
	s.metricsLabels = labels
	s.algHist = make(map[string]*metrics.Histogram)
	s.mProposals = reg.Counter("indulgence_proposals_total",
		"proposals accepted into intake", labels...)
	s.mResolved = reg.Counter("indulgence_resolved_total",
		"proposal futures resolved with a decision", labels...)
	s.mFailed = reg.Counter("indulgence_failed_total",
		"proposal futures failed without a decision", labels...)
	s.mDecisions = reg.Counter("indulgence_decisions_total",
		"consensus instances decided", labels...)
	s.mInstFail = reg.Counter("indulgence_instance_failures_total",
		"consensus instances that missed their decision", labels...)
	s.mSuspicions = reg.Counter("indulgence_suspicions_total",
		"failure-detector suspicion events raised across the service's instances", labels...)
	s.mPropLat = reg.Histogram("indulgence_proposal_latency_ns",
		"proposal latency, enqueue to resolution, in nanoseconds", 1<<12, 1<<34, labels...)
	s.mDecLat = reg.Histogram("indulgence_decision_latency_ns",
		"instance latency, batch cut to decision, in nanoseconds", 1<<12, 1<<34, labels...)
	return s, nil
}

// start finishes construction once the muxes are attached: frame
// counters, journal recovery, then the batcher and control loop.
func (s *Service) start() {
	if s.reg != nil && s.ownsMuxes {
		// A service that owns its muxes owns all their traffic, so the
		// frame counters carry its group label; shared muxes (NewOnMuxes)
		// are instrumented by their owner instead.
		fin := s.reg.Counter("indulgence_frames_in_total",
			"well-formed inbound frames routed or buffered by the mux", s.metricsLabels...)
		fout := s.reg.Counter("indulgence_frames_out_total",
			"frames sent through the mux's virtual endpoints", s.metricsLabels...)
		for _, m := range s.muxes {
			m.Instrument(fin, fout)
		}
	}
	// The first instance of group g is g itself; every later one adds
	// the stride, so the assigned IDs are exactly {g, g+G, g+2G, …}.
	s.nextInstance = s.cfg.Group
	s.claimedThrough = s.nextInstance
	if s.cfg.Journal != nil {
		// Recovery: resume the instance-ID frontier past every journaled
		// start claim and decision — aligned up to the group's residue
		// class — and bulk-retire the journaled range of this group's
		// streams on every mux, so stale flood frames from a previous
		// process lifetime are dropped instead of buffering for instances
		// nobody will open. A member with remote peers must never re-run
		// a slot its previous lifetime touched: rejoining one with reset
		// algorithm state would be amnesia, not a crash-stop.
		s.nextInstance = alignInstance(s.cfg.Journal.Frontier(), s.cfg.Group, s.stride)
		s.claimedThrough = s.nextInstance
		for _, m := range s.muxes {
			m.RetireGroupBelow(s.cfg.Group, s.nextInstance)
		}
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	go s.batcher()
	if s.plane != nil {
		go controlLoop(s.runCtx, s.cfg.Clock, s.plane, s.intake, s.slots)
	}
}

// Join signals that inbound frames exist for slot and this service
// should adopt it. It never blocks — callable straight from a mux router
// goroutine; a dropped signal re-fires on the slot's next inbound frame.
// Slots outside the service's group are dropped by the batcher, and so
// are all signals to a service whose members are all local.
func (s *Service) Join(slot uint64) {
	select {
	case s.joins <- slot:
	default:
	}
}

// controlLoop ticks a control plane at its interval with the live
// queue/slot occupancy until the service's run context ends.
func controlLoop(ctx context.Context, clk clock.Clock, plane *adapt.Plane, intake chan *pending, slots chan struct{}) {
	t := clk.NewTicker(plane.Interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C():
			plane.Tick(len(intake), cap(intake), len(slots), cap(slots))
		}
	}
}

// Lookup serves the journaled decision of an already-decided instance
// without re-running consensus — the recovery read path. It reports
// false when the service has no journal or the instance is not on
// record.
func (s *Service) Lookup(instance uint64) (Decision, bool) {
	if s.cfg.Journal == nil {
		return Decision{}, false
	}
	rec, ok := s.cfg.Journal.Get(instance)
	if !ok {
		return Decision{}, false
	}
	return Decision{Instance: rec.Instance, Value: rec.Value, Round: rec.Round, Batch: rec.Batch, Class: rec.Class}, true
}

// Propose enqueues a proposal and returns its Future. It blocks only when
// the intake buffer is full (every instance slot busy and batches queued),
// providing natural backpressure. An adaptive service whose admission
// gate detects sustained intake saturation sheds the proposal with
// adapt.ErrOverload instead of queueing it — callers back off and retry.
// Propose submits at SLO class 0; classed traffic uses ProposeClass.
func (s *Service) Propose(ctx context.Context, v model.Value) (*Future, error) {
	return s.ProposeClass(ctx, 0, v)
}

// ProposeClass enqueues a proposal at an SLO class (0..adapt.MaxClasses-1;
// higher classes survive admission control longer under overload). A shed
// classed proposal fails with an *adapt.OverloadError carrying the class's
// suggested back-off and retry budget; errors.Is(err, adapt.ErrOverload)
// matches it. The class rides with the proposal end to end: the deciding
// instance is journaled under the batch's highest class, and latency is
// additionally accounted per class.
func (s *Service) ProposeClass(ctx context.Context, class int, v model.Value) (*Future, error) {
	if class < 0 || class >= adapt.MaxClasses {
		return nil, fmt.Errorf("service: class %d outside [0, %d]", class, adapt.MaxClasses-1)
	}
	p := &pending{value: v, class: class, enqueued: s.cfg.Clock.Now(), fut: &Future{done: make(chan struct{})}}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.plane != nil {
		if oe := s.plane.AdmitClass(class); oe != nil {
			s.countMu.Lock()
			s.overloads++
			s.overloadsBy[class]++
			if class > s.maxClass {
				s.maxClass = class
			}
			s.countMu.Unlock()
			return nil, oe
		}
	}
	select {
	case s.intake <- p:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.countMu.Lock()
	s.proposals++
	if class > s.maxClass {
		s.maxClass = class
	}
	s.countMu.Unlock()
	s.mProposals.Inc()
	return p.fut, nil
}

// Close stops intake, flushes the pending batch, waits for every inflight
// instance to resolve (with remote members, through its flood grace),
// and shuts the muxes down. Endpoints passed to New stay open. Close is
// idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.intake)
	<-s.batcherDone
	s.wg.Wait()
	s.runCancel()
	if s.ownsMuxes {
		for _, m := range s.muxes {
			_ = m.Close()
		}
	}
	return nil
}

// Abort hard-stops the service without flushing — the shutdown shape a
// crash gives it, recoverable only through the journal (the
// crash-restart tests lean on it). In-flight instances are cancelled,
// queued batches fail their futures, and the muxes close so a successor
// service can take over the endpoints (closed muxes fail every further
// send, so leftover goroutines are crash-stopped off the shared
// transport). Decision records already durable survive; an instance
// caught between its journal append and its futures resolving may leave
// clients unanswered about a decision that is on record — exactly the
// window a real crash opens, and the reason recovery trusts the
// journal, not the clients. Unlike Close, Abort waits for nothing: the
// batcher and in-flight instance goroutines unwind on their own once
// cancelled (a crash cannot wait for a goroutine that may itself be
// blocked on the journal). Endpoints and the journal stay with their
// owners.
func (s *Service) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.runCancel()
	close(s.intake)
	if s.ownsMuxes {
		for _, m := range s.muxes {
			_ = m.Close()
		}
	}
}

// Group returns the consensus group this service runs (0 for the
// single-group service).
func (s *Service) Group() uint64 { return s.cfg.Group }

// Occupancy reports the intake buffer's current fill and capacity — the
// load signal shard placement policies compare across groups.
func (s *Service) Occupancy() (used, capacity int) {
	return len(s.intake), cap(s.intake)
}

// Shedding reports whether the service's admission gate is currently
// rejecting proposals with adapt.ErrOverload (always false for a
// service without an adaptive config). Placement policies route around
// a shedding group while a non-shedding one exists.
func (s *Service) Shedding() bool {
	return s.plane != nil && !s.plane.Admit()
}

// Snapshot returns current counters and latency/round summaries.
func (s *Service) Snapshot() Stats {
	var control adapt.Stats
	if s.plane != nil {
		control = s.plane.Snapshot()
	}
	s.countMu.Lock()
	defer s.countMu.Unlock()
	algs := make(map[string]int, len(s.algs))
	for k, v := range s.algs {
		algs[k] = v
	}
	var overloadsBy, resolvedBy []int
	var classLat []stats.LatencySummary
	if s.maxClass > 0 {
		n := s.maxClass + 1
		overloadsBy = append(overloadsBy, s.overloadsBy[:n]...)
		resolvedBy = append(resolvedBy, s.resolvedBy[:n]...)
		classLat = make([]stats.LatencySummary, n)
		for c := 0; c < n; c++ {
			if r := s.classLat[c]; r != nil {
				classLat[c] = stats.SummarizeDurations(r.Values())
			}
		}
	}
	return Stats{
		Proposals:        s.proposals,
		Resolved:         s.resolved,
		Failed:           s.failed,
		Instances:        s.instances,
		JoinedInstances:  s.joined,
		InstanceFailures: s.instanceFail,
		Overloads:        s.overloads,
		OverloadsByClass: overloadsBy,
		ResolvedByClass:  resolvedBy,
		ClassLatency:     classLat,
		Violations:       append([]string(nil), s.violations...),
		Latency:          stats.SummarizeDurations(s.latencies.Values()),
		Rounds:           stats.Summarize(s.rounds.Values()),
		DecisionLatency:  stats.SummarizeDurations(s.instLat.Values()),
		RoundLatency:     stats.SummarizeDurations(s.roundLat.Values()),
		BatchFill:        stats.Summarize(s.fills.Values()),
		Control:          control,
		Algorithms:       algs,
	}
}

// batchLimit returns the effective batch-size limit: the controller's
// actuation when adaptive, the static MaxBatch otherwise.
func (s *Service) batchLimit() int {
	if s.plane != nil {
		return s.plane.BatchLimit()
	}
	return s.cfg.MaxBatch
}

// lingerFor returns the effective linger for a fresh batch.
func (s *Service) lingerFor() time.Duration {
	if s.plane != nil {
		return s.plane.Linger()
	}
	return s.cfg.Linger
}

// roundsHist returns (registering at an algorithm's first decision) its
// rounds-per-decision histogram — the paper's price gap as a live
// series: the A_f+2 rung's mass sits at f+2 rounds while A_t+2's sits
// at its t+2 floor. Callers hold countMu; nil without a registry.
func (s *Service) roundsHist(alg string) *metrics.Histogram {
	if s.reg == nil {
		return nil
	}
	h, ok := s.algHist[alg]
	if !ok {
		labels := append([]metrics.Label{{Key: "alg", Value: alg}}, s.metricsLabels...)
		h = s.reg.Histogram("indulgence_rounds_per_decision",
			"global decision round per decided instance, by algorithm rung", 1, 256, labels...)
		s.algHist[alg] = h
	}
	return h
}

// recordCut accounts one dispatched batch's fill with both sinks
// (Stats.BatchFill and the control plane's window), whether the batch
// launched on a fresh instance or rode a joined slot.
func (s *Service) recordCut(n int) {
	fill := cutFill(n, s.batchLimit())
	s.countMu.Lock()
	s.fills.Add(fill)
	s.countMu.Unlock()
	if s.plane != nil {
		s.plane.ObserveCut(fill)
	}
}

// batcher cuts the intake stream into batches: a batch closes when it
// reaches the effective batch limit or its oldest proposal has waited
// the effective linger (both live values of the control plane when one
// is attached). Each batch then launches on the next free instance ID.
// With remote members the batcher also serves join signals: a joined
// slot pushes the ID counter past it, which keeps every member's
// counter roughly in step with the cluster's.
func (s *Service) batcher() {
	defer close(s.batcherDone)
	var (
		batch   []*pending
		lingerT clock.Timer
		lingerC <-chan time.Time
	)
	stopLinger := func() {
		if lingerT != nil {
			lingerT.Stop()
			lingerT, lingerC = nil, nil
		}
	}
	flush := func() {
		stopLinger()
		if len(batch) == 0 {
			return
		}
		b := batch
		batch = nil
		s.recordCut(len(b))
		instance := s.nextInstance
		s.nextInstance += s.stride
		s.launch(instance, b, false)
	}
	for {
		select {
		case p, ok := <-s.intake:
			if !ok {
				flush()
				return
			}
			batch = append(batch, p)
			if len(batch) == 1 {
				lingerT = s.cfg.Clock.NewTimer(s.lingerFor())
				lingerC = lingerT.C()
			}
			if len(batch) >= s.batchLimit() {
				flush()
			}
		case <-lingerC:
			lingerT, lingerC = nil, nil
			var closed bool
			batch, closed = drainIntake(s.intake, batch, s.batchLimit())
			flush()
			if closed {
				return
			}
		case slot := <-s.joins:
			if slot%s.stride != s.cfg.Group || s.isActive(slot) {
				continue // another group's slot, or already running here
			}
			if s.cfg.Journal != nil {
				if _, done := s.cfg.Journal.Get(slot); done {
					continue // decided in this lifetime; retire race
				}
			}
			// A lingering local batch rides the joined slot instead of
			// waiting for its own: the join must propose something
			// anyway, and a real proposal beats a noop. Only fresh
			// slots (never seen before, so never retired locally) may
			// carry it — a stale duplicate signal for a slot that
			// already ran must not drag real proposals into an open
			// failure.
			var b []*pending
			if slot >= s.nextInstance {
				s.nextInstance = slot + s.stride
				stopLinger()
				b, batch = batch, nil
			}
			if len(b) > 0 {
				// The ride is a batch cut like any other: the fill
				// signal must see it or a mostly-joining member's
				// controller runs blind.
				s.recordCut(len(b))
			}
			s.launch(slot, b, true)
		}
	}
}

// launch claims an instance slot (blocking — the bounded-shard
// backpressure), picks the instance's algorithm, journals its claims and
// decision trace when needed, and starts its local run. A joined slot
// may carry an empty batch.
func (s *Service) launch(instance uint64, batch []*pending, joined bool) {
	select {
	case s.slots <- struct{}{}:
	case <-s.runCtx.Done():
		failBatch(batch, s.runCtx.Err())
		return
	}
	choice := s.static
	var cctx adapt.ChoiceContext
	if s.plane != nil {
		// One lock acquisition yields both the pick and the control-
		// plane context behind it, so the decision-trace record below
		// can never disagree with the choice it annotates.
		choice, cctx = s.plane.PickContext()
	}
	if s.cfg.Journal != nil {
		if err := s.journalLaunch(instance, len(batch), choice, cctx); err != nil {
			<-s.slots
			failBatch(batch, err)
			return
		}
	}
	if s.remote {
		s.activeMu.Lock()
		s.active[instance] = struct{}{}
		s.activeMu.Unlock()
	}
	s.wg.Add(1)
	go s.runInstance(instance, batch, choice, joined)
}

// journalLaunch journals what must be on record before any of an
// instance's frames can reach the network: its ID claim — the recovered
// frontier must cover crash-undecided and joined instances too, or
// their in-flight frames could leak into a successor service's instance
// of the same ID — and, with a control plane, its decision trace. The
// static path claims MaxInflight-sized blocks with one written (not
// fsynced — see journal.AppendStart) record; with algorithm selection
// every instance claims individually so its chosen algorithm is on
// record before the choice can act, keeping check.Replay's
// cross-restart algorithm audit exact.
func (s *Service) journalLaunch(instance uint64, size int, choice adapt.Choice, cctx adapt.ChoiceContext) error {
	switch {
	case s.plane != nil && s.plane.Selecting():
		rec := wire.StartRecord{Instance: instance, Alg: choice.Name, Group: s.cfg.Group}
		if err := s.cfg.Journal.AppendStartRecord(rec); err != nil {
			return fmt.Errorf("service: claim instance %d: %w", instance, err)
		}
		if instance >= s.claimedThrough {
			s.claimedThrough = instance + s.stride
		}
	case instance >= s.claimedThrough:
		through, err := claimBlock(s.cfg.Journal, instance, s.cfg.MaxInflight, s.static.Name, s.cfg.Group, s.stride)
		if err != nil {
			return err
		}
		s.claimedThrough = through
	}
	if s.plane == nil {
		return nil
	}
	// Decision-trace record: the controller/selector/admission context
	// behind this launch, journaled after the start claim, so replay can
	// audit why each rung was chosen. Same durability class as start
	// claims (written, not fsynced).
	trace := wire.DecisionTraceRecord{
		Instance:    instance,
		Group:       s.cfg.Group,
		Level:       cctx.Level,
		Chosen:      cctx.Chosen,
		NotTaken:    cctx.NotTaken,
		Suspicions:  uint64(cctx.Suspicions),
		QueueLen:    uint64(len(s.intake)),
		QueueCap:    uint64(cap(s.intake)),
		BatchFill:   cutFill(size, cctx.BatchLimit),
		BatchLimit:  cctx.BatchLimit,
		LingerNanos: int64(cctx.Linger),
		EWMANanos:   int64(cctx.EWMA),
		ShedMask:    uint64(cctx.ShedMask),
	}
	if err := s.cfg.Journal.AppendDecisionTrace(trace); err != nil {
		return fmt.Errorf("service: trace instance %d: %w", instance, err)
	}
	return nil
}

// isActive reports whether the instance is currently running locally.
func (s *Service) isActive(instance uint64) bool {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	_, ok := s.active[instance]
	return ok
}

// failBatch resolves every future of a batch with err.
func failBatch(batch []*pending, err error) {
	for _, p := range batch {
		p.fut.resolve(Decision{}, err)
	}
}

// cutFill returns a batch cut's fill percentage against the effective
// limit, floored at 1: a cut always carries at least one proposal, and
// integer division against a limit above 100 must not read as "no cut"
// (the controller treats fill 0 as an idle window).
func cutFill(n, limit int) int {
	if fill := 100 * n / max(limit, 1); fill >= 1 {
		return fill
	}
	return 1
}

// drainIntake appends the immediately available proposals to batch, up
// to limit, without blocking; closed reports that intake was closed and
// fully drained (the caller flushes and exits). The batcher runs it
// when a cut is due, so a short (or zero) linger still yields full
// batches under load instead of racing the timer one proposal at a
// time.
func drainIntake(intake <-chan *pending, batch []*pending, limit int) (out []*pending, closed bool) {
	for len(batch) < limit {
		select {
		case p, ok := <-intake:
			if !ok {
				return batch, true
			}
			batch = append(batch, p)
		default:
			return batch, false
		}
	}
	return batch, false
}

// claimBlock journals a start-claim covering instance and the rest of
// its inflight-sized ID block — the block spans inflight IDs of the
// claiming group's strided space, so its highest member is instance +
// stride*(inflight-1) — returning the new claimed-through frontier
// (first group ID not covered). alg tags the claim with the statically
// configured algorithm every instance of the block runs (adaptive
// selection claims per instance instead — see journalLaunch).
func claimBlock(j *journal.Journal, instance uint64, inflight int, alg string, group, stride uint64) (uint64, error) {
	claim := instance + stride*(uint64(inflight)-1)
	if err := j.AppendStartRecord(wire.StartRecord{Instance: claim, Alg: alg, Group: group}); err != nil {
		return 0, fmt.Errorf("service: claim instances through %d: %w", claim, err)
	}
	return claim + stride, nil
}

// alignInstance returns the smallest instance ID at or above frontier
// that belongs to group's strided ID space ({group, group+stride, …}) —
// the recovery arithmetic mapping a journal frontier, which covers every
// group journaled in that directory, back onto one group's allocation.
func alignInstance(frontier, group, stride uint64) uint64 {
	if stride <= 1 {
		return frontier
	}
	if frontier <= group {
		return group
	}
	delta := (frontier - group) % stride
	if delta == 0 {
		return frontier
	}
	return frontier + stride - delta
}
