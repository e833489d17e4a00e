package shard

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// Config describes a sharded runtime.
type Config struct {
	// Service is the per-group service template: every group runs a
	// service.Service with this configuration. Its Group, Groups and
	// Journal fields must be zero — the runtime assigns the first two
	// and opens a per-group journal itself when JournalDir is set. A
	// Metrics registry on the template is shared by every group: each
	// group's series carry its own group label, the shared muxes count
	// frames once for the whole runtime, and per-group journals register
	// their entry counters group-labelled too.
	Service service.Config
	// Groups is the number of consensus groups (default 1). Every
	// member of a multi-process cluster must agree on it — a slot's
	// owning group is slot mod Groups everywhere — while placement may
	// differ per member.
	Groups int
	// Placement routes proposals to groups (default round-robin).
	Placement Policy
	// JournalDir, when non-empty, gives every group a durable journal
	// in its own subdirectory (see GroupDir). Empty runs without
	// durability. Members of a multi-process cluster never share one.
	JournalDir string
	// JournalOptions configures every group's journal.
	JournalOptions journal.Options
}

// GroupDir returns the journal directory of one group under a runtime's
// journal root. The layout is stable — restart recovery and the offline
// cross-group audit (check.Replay over every group's entries) both
// address journals through it.
func GroupDir(root string, group int) string {
	return filepath.Join(root, fmt.Sprintf("group-%04d", group))
}

// Runtime is the sharded runtime: G service.Service groups over one
// shared set of muxes — one per local member — with the placement
// router in front. It satisfies the same Propose/Snapshot/Close surface
// the single-group service offers, so callers (the CLI's serve and
// bench-service paths) treat one group and many uniformly.
type Runtime struct {
	groups   []*service.Service
	journals []*journal.Journal
	muxes    []*transport.Mux
	policy   Policy
	views    []Group
	seq      atomic.Uint64
	closed   atomic.Bool

	// joinMu orders early join signals against construction: with a
	// remote member the muxes start routing (and signalling) the moment
	// they exist, before the group services do, so signals arriving in
	// the window buffer in backlog and flush once every group is up.
	joinMu  sync.Mutex
	ready   bool
	backlog [][2]uint64
}

// joinBacklog bounds the pre-ready backlog. Signals beyond it drop
// harmlessly: a join signal re-fires on the slot's next inbound frame.
const joinBacklog = 1024

// New starts a sharded runtime over the endpoints of its local members,
// under service.New's rules: all Service.N of them for a single-process
// runtime, or a subset in ascending Self() order when the other members
// run elsewhere. The endpoints stay owned by the caller; the runtime
// wraps each in a group-aware mux shared by all its groups and owns all
// reads from it. With a remote member the runtime owns the muxes'
// pending callback and routes each (group, instance) join signal to the
// group service that owns it, so a proposal entering any member reaches
// every member's matching group.
func New(cfg Config, endpoints []transport.Transport) (*Runtime, error) {
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	if cfg.Groups < 1 {
		return nil, fmt.Errorf("shard: need at least 1 group, got %d", cfg.Groups)
	}
	if cfg.Service.Group != 0 || cfg.Service.Groups != 0 || cfg.Service.Journal != nil {
		return nil, errors.New("shard: the service template's Group, Groups and Journal must be unset")
	}
	if cfg.Placement == nil {
		cfg.Placement = NewRoundRobin()
	}
	for i, ep := range endpoints {
		if ep == nil {
			return nil, fmt.Errorf("shard: endpoint %d is nil", i+1)
		}
	}
	r := &Runtime{
		muxes:  make([]*transport.Mux, len(endpoints)),
		policy: cfg.Placement,
	}
	var onPending func(group, instance uint64)
	if len(endpoints) < cfg.Service.N {
		onPending = r.dispatch
	}
	for i, ep := range endpoints {
		r.muxes[i] = transport.NewMuxGroupNotify(ep, onPending)
	}
	if reg := cfg.Service.Metrics; reg != nil {
		// The muxes are shared by every group, so their frame counters
		// are runtime-wide (no group label) — a frame is counted once,
		// not once per group.
		fin := reg.Counter("indulgence_frames_in_total",
			"well-formed inbound frames routed or buffered by the shared muxes")
		fout := reg.Counter("indulgence_frames_out_total",
			"frames sent through the shared muxes' virtual endpoints")
		for _, m := range r.muxes {
			m.Instrument(fin, fout)
		}
	}
	for g := 0; g < cfg.Groups; g++ {
		svcCfg := cfg.Service
		svcCfg.Group = uint64(g)
		svcCfg.Groups = cfg.Groups
		if cfg.JournalDir != "" {
			jo := cfg.JournalOptions
			if cfg.Service.Metrics != nil && jo.Metrics == nil {
				jo.Metrics = cfg.Service.Metrics
				jo.MetricsLabels = []metrics.Label{{Key: "group", Value: strconv.Itoa(g)}}
			}
			j, err := journal.Open(GroupDir(cfg.JournalDir, g), jo)
			if err != nil {
				r.teardown()
				return nil, fmt.Errorf("shard: open group %d journal: %w", g, err)
			}
			r.journals = append(r.journals, j)
			svcCfg.Journal = j
		}
		svc, err := service.NewOnMuxes(svcCfg, r.muxes)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("shard: start group %d: %w", g, err)
		}
		r.groups = append(r.groups, svc)
		r.views = append(r.views, svc)
	}
	r.joinMu.Lock()
	r.ready = true
	backlog := r.backlog
	r.backlog = nil
	r.joinMu.Unlock()
	for _, sig := range backlog {
		r.deliver(sig[0], sig[1])
	}
	return r, nil
}

// dispatch is the shared muxes' pending callback: route the join signal
// to the owning group service, or buffer it while construction is still
// assembling the groups. Runs on a mux router goroutine — it must never
// block, and deliver only does a non-blocking channel send.
func (r *Runtime) dispatch(group, instance uint64) {
	r.joinMu.Lock()
	if !r.ready {
		if len(r.backlog) < joinBacklog {
			r.backlog = append(r.backlog, [2]uint64{group, instance})
		}
		r.joinMu.Unlock()
		return
	}
	r.joinMu.Unlock()
	r.deliver(group, instance)
}

// deliver hands one join signal to its group service. Signals for groups
// this member does not run (a peer misconfigured with more groups) are
// dropped — the member cannot join a group it has no service for.
func (r *Runtime) deliver(group, instance uint64) {
	if group < uint64(len(r.groups)) {
		r.groups[group].Join(instance)
	}
}

// teardown unwinds a partially constructed runtime.
func (r *Runtime) teardown() {
	for _, svc := range r.groups {
		_ = svc.Close()
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
	for _, j := range r.journals {
		_ = j.Close()
	}
}

// Groups returns the number of consensus groups.
func (r *Runtime) Groups() int { return len(r.groups) }

// Policy returns the placement policy's name.
func (r *Runtime) Policy() string { return r.policy.Name() }

// Group returns one group's service — the per-group escape hatch the
// tests and the chaos harness use to address a specific group.
func (r *Runtime) Group(g int) *service.Service { return r.groups[g] }

// Journals returns the per-group journals, indexed by group ID (empty
// when the runtime was built without a JournalDir).
func (r *Runtime) Journals() []*journal.Journal { return r.journals }

// Propose routes a proposal to a group under the placement policy and
// enqueues it there. Proposals without a natural key use an internal
// sequence number, so affinity policies still spread them.
func (r *Runtime) Propose(ctx context.Context, v model.Value) (*service.Future, error) {
	return r.ProposeKey(ctx, r.seq.Add(1)-1, v)
}

// ProposeKey routes a proposal by its routing key: affinity placement
// sends every proposal of one key through one group's batcher (ordering
// everything about the key), other policies ignore the key.
func (r *Runtime) ProposeKey(ctx context.Context, key uint64, v model.Value) (*service.Future, error) {
	return r.ProposeKeyClass(ctx, key, 0, v)
}

// ProposeClass routes a classed proposal under the placement policy,
// keyed by the internal sequence like Propose.
func (r *Runtime) ProposeClass(ctx context.Context, class int, v model.Value) (*service.Future, error) {
	return r.ProposeKeyClass(ctx, r.seq.Add(1)-1, class, v)
}

// ProposeKeyClass routes a proposal by key at an SLO class — the full
// submission surface. The class gates admission in the chosen group
// (see service.ProposeClass) after placement: routing is class-blind,
// so a high-class proposal still lands on its key's group rather than
// shopping for an unshedding one.
func (r *Runtime) ProposeKeyClass(ctx context.Context, key uint64, class int, v model.Value) (*service.Future, error) {
	if r.closed.Load() {
		return nil, service.ErrClosed
	}
	return r.groups[r.policy.Pick(key, r.views)].ProposeClass(ctx, class, v)
}

// Lookup serves the journaled decision of an already-decided instance
// from whichever group owns it (the strided allocation makes the owner
// computable, not searchable-for).
func (r *Runtime) Lookup(instance uint64) (service.Decision, bool) {
	return r.groups[instance%uint64(len(r.groups))].Lookup(instance)
}

// Rollup is a point-in-time snapshot across every group: the per-group
// service snapshots plus the aggregate counters the bench and smoke
// paths assert on.
type Rollup struct {
	// Groups holds each group's service snapshot, indexed by group ID.
	Groups []service.Stats
	// Proposals, Resolved, Failed, Instances, JoinedInstances,
	// InstanceFailures and Overloads are the sums of the per-group
	// counters.
	Proposals, Resolved, Failed int
	Instances, JoinedInstances  int
	InstanceFailures, Overloads int
	// OverloadsByClass and ResolvedByClass are the per-SLO-class sums
	// across groups, indexed by class and sized to the highest class any
	// group saw (nil when every group ran classless).
	OverloadsByClass []int
	ResolvedByClass  []int
	// Violations collects every group's consensus-property violations,
	// each prefixed with its group ("group 3: instance 7: ...").
	Violations []string
}

// Snapshot returns the cross-group rollup.
func (r *Runtime) Snapshot() Rollup {
	var out Rollup
	for g, svc := range r.groups {
		st := svc.Snapshot()
		out.Groups = append(out.Groups, st)
		out.Proposals += st.Proposals
		out.Resolved += st.Resolved
		out.Failed += st.Failed
		out.Instances += st.Instances
		out.JoinedInstances += st.JoinedInstances
		out.InstanceFailures += st.InstanceFailures
		out.Overloads += st.Overloads
		out.OverloadsByClass = addByClass(out.OverloadsByClass, st.OverloadsByClass)
		out.ResolvedByClass = addByClass(out.ResolvedByClass, st.ResolvedByClass)
		for _, v := range st.Violations {
			out.Violations = append(out.Violations, fmt.Sprintf("group %d: %s", g, v))
		}
	}
	return out
}

// addByClass accumulates one group's per-class counters into the
// rollup's, growing the slice to the widest class seen.
func addByClass(sum, add []int) []int {
	for len(sum) < len(add) {
		sum = append(sum, 0)
	}
	for c, v := range add {
		sum[c] += v
	}
	return sum
}

// Close stops every group (flushing pending batches and waiting for
// inflight instances), then the shared muxes, then the journals. The
// endpoints stay with the caller. Idempotent.
func (r *Runtime) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, svc := range r.groups {
		if err := svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
	for _, j := range r.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Abort hard-stops every group without flushing — the crash shutdown
// shape, recoverable only through the journals (see service.Abort).
// Journals are closed so a successor runtime can take the directories
// over; records already durable survive.
func (r *Runtime) Abort() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	for _, svc := range r.groups {
		svc.Abort()
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
	for _, j := range r.journals {
		_ = j.Close()
	}
}

// ReplayDir replays every group journal under a runtime's journal root
// (the GroupDir layout) into one decision-record and start-claim
// stream, in ascending group order — the input shape check.Replay
// audits: feeding all groups of one member to a single Replay call is
// exactly what arms its cross-group instance-ID audit. Group
// directories that do not exist are skipped (a fresh member may not
// have journaled every group yet).
func ReplayDir(root string, groups int) (records []wire.DecisionRecord, starts []wire.StartRecord, err error) {
	for g := 0; g < groups; g++ {
		dir := GroupDir(root, g)
		_, err := journal.Replay(dir, func(e journal.Entry) error {
			switch {
			case e.Trace != nil:
				// Decision-trace entries are introspection context,
				// not claims or outcomes; the consensus audit skips
				// them.
			case e.Start:
				starts = append(starts, wire.StartRecord{
					Instance: e.Decision.Instance, Alg: e.Alg, Group: e.Decision.Group})
			default:
				records = append(records, e.Decision)
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return nil, nil, fmt.Errorf("shard: replay group %d: %w", g, err)
		}
	}
	return records, starts, nil
}
