// Package indulgence is a library-grade reproduction of Dutta & Guerraoui,
// "The inherent price of indulgence" (PODC 2002; Distributed Computing
// 18(1):85–98, 2005): the tight t+2-round bound on the time complexity of
// indulgent consensus in the round-based eventually synchronous model.
//
// The package is the public façade over the implementation in internal/:
//
//   - the round-based models SCS and ES, adversary schedules and a
//     deterministic lockstep simulator;
//   - the paper's algorithms — A_{t+2} with its failure-free optimization
//     and ◇S adaptation, and A_{f+2} — plus the baselines they are
//     measured against (FloodSet, FloodSetWS, a CT-style rotating
//     coordinator, Hurfin–Raynal, leader-based AMR);
//   - the lower-bound machinery: exhaustive serial-run exploration,
//     valency analysis and the executable Claim 5.1 constructions;
//   - a live runtime executing the same algorithms as goroutine processes
//     over in-memory or TCP transports with adaptive timeout failure
//     detection;
//   - a consensus service multiplexing many concurrent batched instances
//     over one cluster's connections, with per-proposal decision futures
//     and latency accounting;
//   - a durable decision journal (append-only, fsync-batched, CRC-framed
//     segments) that makes the service restartable: decisions are
//     journaled before their futures resolve, and recovery replays the
//     log instead of re-running consensus;
//   - the experiment suite regenerating every quantitative claim of the
//     paper (see EXPERIMENTS.md).
//
// Quick start:
//
//	factory := indulgence.NewAtPlus2(indulgence.AtPlus2Options{})
//	res, err := indulgence.Simulate(indulgence.SimConfig{
//	    Synchrony: indulgence.ES,
//	    Schedule:  indulgence.FailureFree(5, 2),
//	    Proposals: []indulgence.Value{3, 1, 4, 1, 5},
//	    Factory:   factory,
//	})
//	// every process decides value 1 at round t+2 = 4
package indulgence

import (
	"io"

	"indulgence/internal/adapt"
	"indulgence/internal/baseline"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/experiments"
	"indulgence/internal/journal"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/sched"
	"indulgence/internal/service"
	"indulgence/internal/sim"
	"indulgence/internal/trace"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// Core model types.
type (
	// ProcessID identifies a process (1..n).
	ProcessID = model.ProcessID
	// Value is a proposal/decision value (totally ordered).
	Value = model.Value
	// Round is a 1-based round number.
	Round = model.Round
	// Synchrony selects the round-based model (SCS or ES).
	Synchrony = model.Synchrony
	// OptValue is a value or the paper's ⊥.
	OptValue = model.OptValue
	// PIDSet is a set of process identities.
	PIDSet = model.PIDSet
	// ProcessContext is the static per-process configuration.
	ProcessContext = model.ProcessContext
	// Algorithm is the deterministic round state machine contract.
	Algorithm = model.Algorithm
	// Factory constructs one process's algorithm instance.
	Factory = model.Factory
	// Message is a round-stamped message.
	Message = model.Message
	// Payload is the algorithm-specific message content.
	Payload = model.Payload
)

// Model constants.
const (
	// SCS is the synchronous crash-stop model.
	SCS = model.SCS
	// ES is the eventually synchronous model.
	ES = model.ES
)

// Some wraps a concrete value into an OptValue.
func Some(v Value) OptValue { return model.Some(v) }

// Bottom returns the paper's ⊥.
func Bottom() OptValue { return model.Bottom() }

// PIDSetOf returns the set containing the given processes.
func PIDSetOf(ps ...ProcessID) PIDSet { return model.NewPIDSet(ps...) }

// Schedules and simulation.
type (
	// Schedule is a complete adversary script for one run.
	Schedule = sched.Schedule
	// ScheduleOption configures a new Schedule.
	ScheduleOption = sched.Option
	// RandomOpts parameterizes the random schedule generators.
	RandomOpts = sched.RandomOpts
	// SimConfig describes one simulated run.
	SimConfig = sim.Config
	// SimResult is one simulated run's outcome.
	SimResult = sim.Result
	// Decision is one process's decision.
	Decision = sim.Decision
	// RunTrace is the full recorded history of a run.
	RunTrace = trace.Run
	// Report is a consensus property-check report.
	Report = check.Report
)

// NewSchedule returns an empty (failure-free, synchronous) schedule for n
// processes tolerating t crashes. Build adversaries with its Crash,
// CrashSilent, CrashWithReceivers, Delay and Drop methods.
func NewSchedule(n, t int, opts ...ScheduleOption) *Schedule { return sched.New(n, t, opts...) }

// WithGSR sets a schedule's global stabilization round (the paper's K).
func WithGSR(k Round) ScheduleOption { return sched.WithGSR(k) }

// Schedule generators (see package sched for the full documentation).
func FailureFree(n, t int) *Schedule { return sched.FailureFree(n, t) }

// RandomSynchronous samples a synchronous schedule with random crashes.
func RandomSynchronous(n, t int, o RandomOpts) *Schedule { return sched.RandomSynchronous(n, t, o) }

// RandomES samples an eventually synchronous schedule stabilizing at gsr.
func RandomES(n, t int, gsr Round, o RandomOpts) *Schedule { return sched.RandomES(n, t, gsr, o) }

// KillCoordinators crashes the first t phase coordinators silently.
func KillCoordinators(n, t, roundsPerPhase int) *Schedule {
	return sched.KillCoordinators(n, t, roundsPerPhase)
}

// DelayedSenderPrefix delays one process's messages for k rounds.
func DelayedSenderPrefix(n, t int, k Round, victim ProcessID) *Schedule {
	return sched.DelayedSenderPrefix(n, t, k, victim)
}

// SplitBrain is the t = n/2 partition schedule of the resilience-price
// experiment.
func SplitBrain(n int, splitRounds Round) *Schedule { return sched.SplitBrain(n, splitRounds) }

// DivergencePrefixFlood is the adversarial asynchronous prefix that keeps
// A_{f+2}'s estimates diverged for k rounds (n = 3t+1; pair it with
// DivergenceProposalsFlood).
func DivergencePrefixFlood(t int, k Round) *Schedule { return sched.DivergencePrefixFlood(t, k) }

// DivergenceProposalsFlood is the initial configuration matching
// DivergencePrefixFlood.
func DivergenceProposalsFlood(t int) []Value { return sched.DivergenceProposalsFlood(t) }

// DivergencePrefixLeader is the adversarial asynchronous prefix that keeps
// AMR's estimates diverged for k rounds (n = 3t+1; pair it with
// DivergenceProposalsLeader).
func DivergencePrefixLeader(t int, k Round) *Schedule { return sched.DivergencePrefixLeader(t, k) }

// DivergenceProposalsLeader is the initial configuration matching
// DivergencePrefixLeader.
func DivergenceProposalsLeader(t int) []Value { return sched.DivergenceProposalsLeader(t) }

// Simulator executes many runs while reusing scratch state (pending
// queues, inboxes, algorithm tables) — the allocation-lean substrate under
// the exhaustive explorer and the experiment sweeps. Not safe for
// concurrent use; SimulateBatch spawns one per worker.
type Simulator = sim.Simulator

// NewSimulator returns a reusable simulator.
func NewSimulator() *Simulator { return sim.NewSimulator() }

// Simulate executes one run under a schedule in the lockstep simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateBatch executes many independent runs concurrently on a bounded
// worker pool (workers <= 0 selects GOMAXPROCS) and returns their results
// in input order; the outcome is identical for every worker count.
func SimulateBatch(workers int, cfgs []SimConfig) ([]*SimResult, error) {
	return sim.RunBatch(workers, cfgs)
}

// CheckConsensus verifies validity, uniform agreement and termination of a
// simulated run.
func CheckConsensus(res *SimResult, proposals []Value) Report {
	return check.Consensus(res, proposals)
}

// CheckInstance verifies validity, uniform agreement and termination over
// the live decisions of one consensus instance (a runtime cluster or a
// service shard); decisions[i] belongs to process i+1.
func CheckInstance(decisions []OptValue, proposals []Value, crashed PIDSet) Report {
	return check.Instance(decisions, proposals, crashed)
}

// ReadRunTrace deserializes a recorded run written with
// (*RunTrace).WriteJSON.
func ReadRunTrace(r io.Reader) (*RunTrace, error) { return trace.ReadJSON(r) }

// Algorithms.
type (
	// AtPlus2Options configures A_{t+2} (underlying consensus,
	// failure-free fast path, ablation knobs).
	AtPlus2Options = core.Options
	// AfPlus2Options configures A_{f+2}.
	AfPlus2Options = core.AfOptions
	// WaitPolicy selects the live runtime's receive discipline.
	WaitPolicy = core.WaitPolicy
)

// Live-runtime wait policies (Fig. 3's line-6/15 modification).
const (
	// WaitUnsuspected is the A_{t+2}/◇P discipline.
	WaitUnsuspected = core.WaitUnsuspected
	// WaitQuorum is the A_{◇S} discipline.
	WaitQuorum = core.WaitQuorum
)

// NewAtPlus2 returns the paper's matching algorithm A_{t+2} (Fig. 2):
// global decision at round t+2 in every synchronous run, consensus in
// every ES run (0 < t < n/2).
func NewAtPlus2(opts AtPlus2Options) Factory { return core.New(opts) }

// NewDiamondS returns A_{◇S}, the Fig. 3 adaptation of A_{t+2} to ◇S.
func NewDiamondS() Factory { return core.NewDiamondS() }

// NewAfPlus2 returns A_{f+2} (Fig. 5): global decision by round k+f+2 in
// runs synchronous after round k with f later crashes (t < n/3).
func NewAfPlus2() Factory { return core.NewAfPlus2() }

// NewAfPlus2Opts returns A_{f+2} with explicit options.
func NewAfPlus2Opts(opts AfPlus2Options) Factory { return core.NewAfPlus2Opts(opts) }

// NewFloodSet returns the SCS FloodSet baseline (t+1 rounds).
func NewFloodSet() Factory { return baseline.NewFloodSet() }

// NewFloodSetWS returns the P-based FloodSetWS baseline (t+1 rounds in
// SCS).
func NewFloodSetWS() Factory { return baseline.NewFloodSetWS() }

// NewCT returns the CT-style rotating-coordinator ◇S consensus used as
// A_{t+2}'s underlying module C.
func NewCT() Factory { return baseline.NewCT() }

// NewHurfinRaynal returns the Hurfin–Raynal ◇S baseline (2t+2 rounds in
// worst-case synchronous runs).
func NewHurfinRaynal() Factory { return baseline.NewHurfinRaynal() }

// NewAMR returns the leader-based Mostefaoui–Raynal baseline (k+2f+2
// eventual decision, t < n/3).
func NewAMR() Factory { return baseline.NewAMR() }

// Lower-bound machinery.
type (
	// ExploreConfig parameterizes serial-run exploration.
	ExploreConfig = lowerbound.Config
	// ExploreResult reports worst-case rounds and witnesses.
	ExploreResult = lowerbound.Result
	// SubsetMode selects receiver-subset enumeration.
	SubsetMode = lowerbound.SubsetMode
	// Claim51 is the executable Fig. 1 construction.
	Claim51 = lowerbound.Claim51
	// Claim51Report is its verification report.
	Claim51Report = lowerbound.VerifyReport
	// Valency classifies configurations by reachable decisions.
	Valency = lowerbound.Valency
)

// Subset enumeration modes.
const (
	// PrefixSubsets is the proof-style enumeration.
	PrefixSubsets = lowerbound.PrefixSubsets
	// AllSubsets is the exhaustive enumeration.
	AllSubsets = lowerbound.AllSubsets
)

// Explore measures the worst-case global decision round of an algorithm
// over every serial run in the configured family.
func Explore(cfg ExploreConfig) (*ExploreResult, error) { return lowerbound.Explore(cfg) }

// BuildClaim51 constructs the five Fig. 1 runs for an algorithm.
func BuildClaim51(factory Factory, n, t int, proposals []Value) (*Claim51, error) {
	return lowerbound.BuildClaim51(factory, n, t, proposals)
}

// ClassifyInitial computes the valency of an initial configuration.
func ClassifyInitial(cfg ExploreConfig) (Valency, error) { return lowerbound.ClassifyInitial(cfg) }

// Live runtime.
type (
	// ClusterConfig describes a live cluster.
	ClusterConfig = runtime.Config
	// Cluster is a set of live goroutine processes.
	Cluster = runtime.Cluster
	// NodeResult is one live process's outcome.
	NodeResult = runtime.NodeResult
	// Transport moves frames between live processes.
	Transport = transport.Transport
	// Hub is the in-memory transport with delay injection.
	Hub = transport.Hub
	// TCPCluster is the in-process TCP loopback cluster (one endpoint
	// per process, ephemeral ports).
	TCPCluster = transport.TCPCluster
	// TCPEndpoint is one process of a multi-process TCP cluster:
	// listener/dialer split, handshake-identified connections, bounded
	// -backoff reconnect.
	TCPEndpoint = transport.TCPEndpoint
	// TCPOptions tunes a multi-process TCP endpoint (timeouts, backoff).
	TCPOptions = transport.TCPOptions
	// PeerTransportConfig is one process's view of a multi-process
	// cluster: self ID plus the addressed peer list.
	PeerTransportConfig = transport.PeerConfig
	// TransportPeer is one member of the peer list.
	TransportPeer = transport.Peer
)

// NewHub returns an in-memory transport hub for n processes.
func NewHub(n int) (*Hub, error) { return transport.NewHub(n) }

// NewTCPCluster starts n fully connected TCP loopback endpoints.
func NewTCPCluster(n int) (*TCPCluster, error) { return transport.NewTCPCluster(n) }

// NewTCPEndpoint starts one process of a multi-process TCP cluster from
// its peer config (listen on the self entry, dial the rest lazily with
// reconnect).
func NewTCPEndpoint(cfg PeerTransportConfig, opts TCPOptions) (*TCPEndpoint, error) {
	return transport.NewTCPEndpoint(cfg, opts)
}

// ParsePeers parses a `p1=host:port,p2=host:port,...` peer list into a
// transport config for the given self ID.
func ParsePeers(self ProcessID, cluster, spec string) (PeerTransportConfig, error) {
	return transport.ParsePeers(self, cluster, spec)
}

// LoadPeerFile reads a peer config file (one pN=host:port entry per
// line, # comments allowed).
func LoadPeerFile(self ProcessID, cluster, path string) (PeerTransportConfig, error) {
	return transport.LoadPeerFile(self, cluster, path)
}

// NewCluster assembles a live cluster (started with its Run method).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return runtime.New(cfg) }

// Consensus service (many concurrent instances over one live cluster).
type (
	// ServiceConfig describes a consensus service: batching, instance
	// sharding and per-instance runtime parameters.
	ServiceConfig = service.Config
	// Service multiplexes batched consensus instances over one cluster.
	Service = service.Service
	// ServiceDecision is the resolution of a batched proposal.
	ServiceDecision = service.Decision
	// ServiceFuture resolves to the decision of a proposal's instance.
	ServiceFuture = service.Future
	// ServiceStats is a snapshot of service counters and latency
	// percentiles.
	ServiceStats = service.Stats
	// Mux multiplexes consensus instances over one transport endpoint.
	Mux = transport.Mux
	// AdaptiveConfig describes the feedback control plane attached via
	// ServiceConfig.Adaptive: AIMD
	// batch/linger tuning, per-instance algorithm selection, and
	// overload admission control.
	AdaptiveConfig = adapt.Config
	// AdaptiveStats is the control plane's snapshot inside ServiceStats.
	AdaptiveStats = adapt.Stats
)

// ErrOverload reports a proposal shed by the adaptive service's
// admission control; callers back off and retry.
var ErrOverload = adapt.ErrOverload

// NewService starts a consensus service over the endpoints of its local
// members: one per process for a single-process service, or just this
// process's own endpoint when the other members run in other OS
// processes.
func NewService(cfg ServiceConfig, endpoints []Transport) (*Service, error) {
	return service.New(cfg, endpoints)
}

// NewMux multiplexes instance-addressed streams over one endpoint.
func NewMux(ep Transport) *Mux { return transport.NewMux(ep) }

// Durable decision journal (crash-restart recovery for the service).
type (
	// Journal is the append-only, fsync-batched decision log a service
	// journals into before resolving futures.
	Journal = journal.Journal
	// JournalOptions configures a journal (segment rotation, fsync).
	JournalOptions = journal.Options
	// JournalStats is a snapshot of journal counters and fsync latency.
	JournalStats = journal.Stats
	// JournalEntry is one replayed journal record (start or decision).
	JournalEntry = journal.Entry
	// JournalReplayInfo summarizes one read of a journal directory.
	JournalReplayInfo = journal.ReplayInfo
	// DecisionRecord is the durable record of one decided instance.
	DecisionRecord = wire.DecisionRecord
	// StartRecord is the durable claim of an instance ID, optionally
	// tagged with the algorithm the instance was launched with.
	StartRecord = wire.StartRecord
)

// OpenJournal opens (creating if needed) the decision journal at dir,
// recovering its decision index and instance frontier; pass the journal
// to a ServiceConfig to make the service restartable.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	return journal.Open(dir, opts)
}

// ReplayJournal iterates every intact record of a journal directory in
// append order, tolerating a torn tail on the final segment exactly as
// recovery does.
func ReplayJournal(dir string, fn func(JournalEntry) error) (JournalReplayInfo, error) {
	return journal.Replay(dir, fn)
}

// CheckReplay cross-checks a journal's decision records and start
// claims against live observations (instance → resolved value),
// extending uniform agreement — including per-instance algorithm
// choices — across process lifetimes.
func CheckReplay(records []DecisionRecord, starts []StartRecord, live map[uint64]Value) Report {
	return check.Replay(records, starts, live)
}

// Experiments.
type (
	// ExperimentOutcome is one experiment's tables and verdict.
	ExperimentOutcome = experiments.Outcome
)

// RunExperiments executes the full simulator-backed experiment suite
// (E1–E8 and the ablations) with test-sized parameters.
func RunExperiments() ([]*ExperimentOutcome, error) { return experiments.All() }
