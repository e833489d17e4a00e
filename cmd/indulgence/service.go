package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/shard"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
)

// buildEndpoints assembles n transport endpoints over the chosen
// transport. hub is nil for tcp; closer shuts the transport down.
func buildEndpoints(trans string, n int) (eps []transport.Transport, hub *transport.Hub, closer func(), err error) {
	eps = make([]transport.Transport, n)
	switch trans {
	case "memory":
		hub, err = transport.NewHub(n)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range eps {
			if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
				_ = hub.Close()
				return nil, nil, nil, err
			}
		}
		return eps, hub, func() { _ = hub.Close() }, nil
	case "tcp":
		tc, err := transport.NewTCPCluster(n)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range eps {
			if eps[i], err = tc.Endpoint(model.ProcessID(i + 1)); err != nil {
				_ = tc.Close()
				return nil, nil, nil, err
			}
		}
		return eps, nil, func() { _ = tc.Close() }, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q", trans)
	}
}

// serviceFlags are the flags shared by serve and bench-service.
type serviceFlags struct {
	algo     *string
	n, t     *int
	trans    *string
	batch    *int
	linger   *time.Duration
	inflight *int
	timeout  *time.Duration
	journal  *string
	segment  *int64

	// Ops endpoint (internal/metrics): -metrics-addr serves the live
	// registry as Prometheus text and JSON plus net/http/pprof.
	metricsAddr *string

	// Sharding (internal/shard): -groups > 1 runs G consensus groups
	// over the shared transport, each owning a strided slice of the
	// instance-ID space, with a placement router in front.
	groups    *int
	placement *string

	// Adaptive control plane (internal/adapt): feedback-tuned batching
	// and admission, plus per-instance algorithm selection (single-
	// process mode only).
	adaptive      *bool
	adaptSelect   *bool
	adaptBatchMax *int
	adaptLingMax  *time.Duration
	classes       *int

	// Multi-process peer mode (serve only): a non-empty -peers or
	// -peers-file makes this process ONE member of a cluster of
	// separately launched processes instead of hosting all n in-process.
	// fs tells flags the user set from defaults.
	fs          *flag.FlagSet
	peers       *string
	peersFile   *string
	self        *int
	clusterID   *string
	joinTimeout *time.Duration
	verbose     *bool
}

func newServiceFlags(fs *flag.FlagSet) serviceFlags {
	return serviceFlags{
		fs:       fs,
		algo:     fs.String("algo", "atplus2", "algorithm"),
		n:        fs.Int("n", 5, "number of processes"),
		t:        fs.Int("t", 2, "resilience bound"),
		trans:    fs.String("transport", "memory", "transport: memory or tcp"),
		batch:    fs.Int("batch", 8, "max proposals per consensus instance"),
		linger:   fs.Duration("linger", 2*time.Millisecond, "max wait to fill a batch"),
		inflight: fs.Int("inflight", 64, "max concurrently running instances"),
		timeout:  fs.Duration("timeout", 25*time.Millisecond, "base suspicion timeout"),
		journal:  fs.String("journal", "", "durable decision journal directory (empty = no journal)"),
		segment:  fs.Int64("segment-bytes", 1<<20, "journal segment rotation size"),

		metricsAddr: fs.String("metrics-addr", "", "ops endpoint address (host:port or :port) serving /metrics, /metrics.json and /debug/pprof (empty = off)"),

		groups:    fs.Int("groups", 1, "consensus groups multiplexed over the shared transport (each owns a strided instance-ID slice and its own journal subdirectory)"),
		placement: fs.String("placement", "round-robin", "proposal placement across groups: round-robin, least-loaded or key-affinity"),

		adaptive:      fs.Bool("adaptive", false, "attach the feedback control plane: batch/linger tuned from observed latency and backlog, overload shed with a typed error"),
		adaptSelect:   fs.Bool("adaptive-select", true, "with -adaptive: pick each instance's algorithm from recent outcomes (A_f+2 when synchronous and trusted; single-process mode only)"),
		adaptBatchMax: fs.Int("adaptive-batch-max", 64, "with -adaptive: controller batch ceiling"),
		adaptLingMax:  fs.Duration("adaptive-linger-max", 8*time.Millisecond, "with -adaptive: controller linger ceiling"),
		classes:       fs.Int("classes", 0, "with -adaptive: SLO classes admission distinguishes, shedding lowest first (0 = classless, or the spec's class count for -workload runs)"),

		peers:       fs.String("peers", "", "peer list p1=host:port,p2=host:port,... — run as ONE member of a multi-process cluster"),
		peersFile:   fs.String("peers-file", "", "file with one pN=host:port peer entry per line (alternative to -peers)"),
		self:        fs.Int("self", 0, "this process's ID in the peer list (peer mode)"),
		clusterID:   fs.String("cluster-id", "", "cluster name carried in the TCP handshake (default \"indulgence\")"),
		joinTimeout: fs.Duration("join-timeout", 10*time.Second, "deadline for instances joined on a peer's signal (peer mode)"),
		verbose:     fs.Bool("verbose", false, "log transport connection events to stderr (peer mode)"),
	}
}

// peerMode reports whether the flags make this process one member of a
// multi-process cluster.
func (f serviceFlags) peerMode() bool { return *f.peers != "" || *f.peersFile != "" }

// adaptConfig builds the control-plane config the flags ask for (nil
// without -adaptive). The selector stays off in peer mode: a member
// cannot switch a shared slot's protocol unilaterally.
func (f serviceFlags) adaptConfig() *adapt.Config {
	if !*f.adaptive {
		return nil
	}
	cfg := &adapt.Config{
		MaxBatch:         *f.adaptBatchMax,
		MaxLinger:        *f.adaptLingMax,
		SelectAlgorithms: *f.adaptSelect && !f.peerMode(),
		Classes:          *f.classes,
	}
	if *f.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return cfg
}

// started bundles whichever runtime shape the flags produced: one
// service.Service for -groups 1 (byte-identical to the pre-sharding
// path), or a shard.Runtime routing across G groups otherwise.
type started struct {
	svc     *service.Service // -groups 1
	rt      *shard.Runtime   // -groups > 1
	hub     *transport.Hub
	peer    *transport.TCPEndpoint // peer mode: this member's endpoint
	peerCfg transport.PeerConfig
	jn      *journal.Journal   // single-group journal; sharded ones live in rt
	ops     *metrics.OpsServer // -metrics-addr endpoint (nil = off)
	cleanup func()
}

// sink returns the proposal entry point of whichever shape started.
func (s *started) sink() proposalSink {
	if s.rt != nil {
		return s.rt
	}
	return s.svc
}

// close drains and stops the runtime (transport cleanup stays separate).
func (s *started) close() error {
	if s.rt != nil {
		return s.rt.Close()
	}
	return s.svc.Close()
}

// start builds the transport, the optional journal(s) and the service —
// or the sharded runtime for -groups > 1 — from the parsed flags. In
// peer mode the transport is this member's TCP endpoint and the service
// runs it as its only local member. The returned cleanup closes the
// transport and the journal; call it after the service is closed.
func (f serviceFlags) start() (*started, error) {
	factory, err := factoryByName(*f.algo)
	if err != nil {
		return nil, err
	}
	if *f.groups < 1 {
		return nil, fmt.Errorf("need at least one consensus group, got -groups %d", *f.groups)
	}
	policy, err := shard.ParsePolicy(*f.placement)
	if err != nil {
		return nil, err
	}
	st := &started{}
	n := *f.n
	var eps []transport.Transport
	var closeTransport func()
	if f.peerMode() {
		ep, cfg, err := f.peerEndpoint()
		if err != nil {
			return nil, err
		}
		st.peer, st.peerCfg = ep, cfg
		eps, n = []transport.Transport{ep}, cfg.N()
		closeTransport = func() { _ = ep.Close() }
	} else if eps, st.hub, closeTransport, err = buildEndpoints(*f.trans, n); err != nil {
		return nil, err
	}
	// The ops endpoint and the registry it serves: one registry spans
	// the whole runtime — every group's service, control plane and
	// journal registers on it — so one scrape shows the full picture.
	var reg *metrics.Registry
	var ops *metrics.OpsServer
	cleanup := closeTransport
	if *f.metricsAddr != "" {
		reg = metrics.NewRegistry()
		ops, err = metrics.ServeOps(*f.metricsAddr, reg)
		if err != nil {
			closeTransport()
			return nil, fmt.Errorf("ops endpoint: %w", err)
		}
		cleanup = func() {
			_ = ops.Close()
			closeTransport()
		}
	}
	st.ops = ops
	cfg := service.Config{
		N: n, T: *f.t,
		Factory:     factory,
		BaseTimeout: *f.timeout,
		MaxBatch:    *f.batch,
		Linger:      *f.linger,
		MaxInflight: *f.inflight,
		JoinTimeout: *f.joinTimeout,
		Adaptive:    f.adaptConfig(),
		Metrics:     reg,
	}
	if *f.groups > 1 {
		rt, err := shard.New(shard.Config{
			Service:        cfg,
			Groups:         *f.groups,
			Placement:      policy,
			JournalDir:     *f.journal,
			JournalOptions: journal.Options{SegmentBytes: *f.segment},
		}, eps)
		if err != nil {
			cleanup()
			return nil, err
		}
		st.rt, st.cleanup = rt, cleanup
		return st, nil
	}
	var jn *journal.Journal
	if *f.journal != "" {
		jo := journal.Options{SegmentBytes: *f.segment}
		if reg != nil {
			jo.Metrics = reg
			jo.MetricsLabels = []metrics.Label{{Key: "group", Value: "0"}}
		}
		jn, err = journal.Open(*f.journal, jo)
		if err != nil {
			cleanup()
			return nil, err
		}
		prev := cleanup
		cleanup = func() {
			prev()
			_ = jn.Close()
		}
	}
	cfg.Journal = jn
	svc, err := service.New(cfg, eps)
	if err != nil {
		cleanup()
		return nil, err
	}
	st.svc, st.jn, st.cleanup = svc, jn, cleanup
	return st, nil
}

// proposalSink is what the stdin loop needs from either runtime shape
// (one service.Service or a shard.Runtime).
type proposalSink interface {
	Propose(ctx context.Context, v model.Value) (*service.Future, error)
}

// printJournalRecovery reports what a freshly opened journal recovered.
func printJournalRecovery(jn *journal.Journal) {
	st := jn.Snapshot()
	fmt.Printf("journal: %s — recovered %d decisions (+%d starts), resuming at instance %d",
		jn.Dir(), st.Decisions, st.Starts, st.Frontier)
	if st.TornBytes > 0 {
		fmt.Printf(" (dropped a %d-byte torn tail)", st.TornBytes)
	}
	fmt.Println()
}

// serveLoop reads one integer proposal per stdin line, proposes each, and
// prints its decision when the instance it rode resolves. It returns when
// stdin hits EOF and every future has fired.
func serveLoop(svc proposalSink) error {
	ctx := context.Background()
	var wg sync.WaitGroup
	var scanErr error
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			fmt.Printf("not a proposal: %q\n", line)
			continue
		}
		fut, err := svc.Propose(ctx, model.Value(v))
		if err != nil {
			scanErr = err
			break
		}
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			dec, err := fut.Wait(ctx)
			if err != nil {
				fmt.Printf("proposal %d failed: %v\n", v, err)
				return
			}
			fmt.Printf("proposal %d -> instance %d decided %d (round %d, batch of %d)\n",
				v, dec.Instance, dec.Value, dec.Round, dec.Batch)
		}(v)
	}
	if scanErr == nil {
		scanErr = sc.Err()
	}
	wg.Wait()
	return scanErr
}

// cmdServe runs the consensus service interactively: every line on stdin
// is one integer proposal; its decision is printed when the instance it
// was batched into resolves. EOF drains the service and prints a summary.
// With -peers (or -peers-file) the process serves as ONE member of a
// multi-process cluster instead of hosting all n processes itself, and a
// decision prints when this member's node of the instance decides.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	f := newServiceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := f.start()
	if err != nil {
		return err
	}
	defer s.cleanup()

	if s.peer != nil {
		fmt.Printf("peer member up: p%d of %d (%s), %s, t=%d, listening on %s, batch ≤ %d, ≤ %d slots inflight\n",
			s.peer.Self(), s.peerCfg.N(), s.peerCfg.ClusterID(), *f.algo, *f.t, s.peer.Addr(), *f.batch, *f.inflight)
	} else {
		fmt.Printf("consensus service up: %s, n=%d t=%d, %s transport, batch ≤ %d, linger %s, ≤ %d instances inflight\n",
			*f.algo, *f.n, *f.t, *f.trans, *f.batch, *f.linger, *f.inflight)
	}
	if s.rt != nil {
		fmt.Printf("sharded: %d consensus groups, %s placement, strided instance-ID spaces\n",
			s.rt.Groups(), s.rt.Policy())
	}
	if *f.adaptive {
		mode := "batch/linger tuning + admission"
		if *f.adaptSelect && s.peer == nil {
			mode += " + per-instance algorithm selection"
		}
		fmt.Printf("adaptive control plane on: %s (decision log with -verbose)\n", mode)
	}
	if s.jn != nil {
		printJournalRecovery(s.jn)
	}
	if s.rt != nil {
		for _, jn := range s.rt.Journals() {
			printJournalRecovery(jn)
		}
	}
	if s.ops != nil {
		fmt.Printf("ops: http://%s/metrics (Prometheus text), /metrics.json (snapshot), /debug/pprof\n", s.ops.Addr())
	}
	fmt.Println("enter one integer proposal per line (EOF to stop):")

	scanErr := serveLoop(s.sink())
	if err := s.close(); err != nil {
		return err
	}
	if s.rt != nil {
		roll := s.rt.Snapshot()
		fmt.Printf("served %d proposals over %d instances across %d groups%s\n",
			roll.Resolved, roll.Instances, s.rt.Groups(), s.joined(roll.JoinedInstances))
		for g, st := range roll.Groups {
			fmt.Printf("  group %d: %d proposals over %d instances%s; latency %s\n",
				g, st.Resolved, st.Instances, s.joined(st.JoinedInstances), st.Latency)
		}
		printShardJournals(s.rt.Journals())
		if len(roll.Violations) > 0 {
			return fmt.Errorf("%d consensus violations: %v", len(roll.Violations), roll.Violations)
		}
		return scanErr
	}
	st := s.svc.Snapshot()
	fmt.Printf("served %d proposals over %d instances%s; latency %s\n",
		st.Resolved, st.Instances, s.joined(st.JoinedInstances), st.Latency)
	if *f.adaptive {
		fmt.Printf("control plane: %d adjustments over %d ticks, final batch ≤ %d linger %s, %d selector transitions, %d proposals shed; algorithms %s\n",
			st.Control.Adjustments, st.Control.Ticks, st.Control.Batch, st.Control.Linger,
			st.Control.Transitions, st.Overloads, formatAlgs(st.Algorithms))
	}
	if s.jn != nil {
		js := s.jn.Snapshot()
		fmt.Printf("journal: %d decisions durable over %d fsyncs; fsync %s\n",
			js.Decisions, js.Syncs, js.SyncLatency)
	}
	if len(st.Violations) > 0 {
		return fmt.Errorf("%d consensus violations: %v", len(st.Violations), st.Violations)
	}
	return scanErr
}

// joined renders a peer member's joined-instance count for the serve
// summary (empty outside peer mode).
func (s *started) joined(n int) string {
	if s.peer == nil {
		return ""
	}
	return fmt.Sprintf(" (%d joined from peers)", n)
}

// printShardJournals reports the per-group journals' durability summary.
func printShardJournals(jns []*journal.Journal) {
	for g, jn := range jns {
		js := jn.Snapshot()
		fmt.Printf("journal group %d: %d decisions durable over %d fsyncs; fsync %s\n",
			g, js.Decisions, js.Syncs, js.SyncLatency)
	}
}

// formatAlgs renders an instances-per-algorithm map as a stable
// name:count list.
func formatAlgs(algs map[string]int) string {
	if len(algs) == 0 {
		return "-"
	}
	names := make([]string, 0, len(algs))
	for name := range algs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, algs[name]))
	}
	return strings.Join(parts, " ")
}

// cmdBenchService is the closed-loop load generator: C client workers
// each submit proposals back-to-back (propose, wait, repeat) until P
// proposals have resolved, optionally under an injected asynchronous
// period or a bursty arrival pattern (-burst releases proposals in
// waves separated by idle gaps — the shape the adaptive controller is
// built for), and the run reports throughput and latency percentiles.
// Proposals shed by admission control (-adaptive under saturation) are
// retried after a short backoff and reported.
func cmdBenchService(args []string) error {
	fs := flag.NewFlagSet("bench-service", flag.ContinueOnError)
	f := newServiceFlags(fs)
	var (
		proposals = fs.Int("proposals", 2048, "total proposals to drive")
		clients   = fs.Int("clients", 128, "closed-loop client workers")
		delay     = fs.Duration("delay", 0, "delay injected on p1's outbound links (memory transport)")
		heal      = fs.Duration("heal", 500*time.Millisecond, "when to heal the injected delay")
		burst     = fs.Int("burst", 0, "release proposals in waves of this size (0 = steady closed loop)")
		burstIdle = fs.Duration("burst-idle", 50*time.Millisecond, "idle gap between bursts")
		limit     = fs.Duration("limit", 5*time.Minute, "overall deadline")
		wl        = fs.String("workload", "", "drive a generated open-loop workload instead of the closed loop: gen:<seed>[:<maxevents>], @FILE or inline JSON")
		record    = fs.String("record", "", "with -workload: record the run as a replayable trace at this path (deterministic virtual-time execution unless -live)")
		liveRec   = fs.Bool("live", false, "with -workload -record: record the real-clock run instead of the deterministic virtual one")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f.peerMode() {
		return errors.New("bench-service runs every member in-process; -peers is serve-only")
	}
	if *wl != "" {
		return benchWorkload(f, *wl, *record, *liveRec, *limit)
	}
	if *record != "" || *liveRec {
		return errors.New("-record and -live need -workload")
	}
	s, err := f.start()
	if err != nil {
		return err
	}
	defer s.cleanup()
	if s.ops != nil {
		fmt.Printf("ops: http://%s/metrics (Prometheus text), /metrics.json (snapshot), /debug/pprof\n", s.ops.Addr())
	}
	svc := s.sink()
	if *delay > 0 {
		if s.hub == nil {
			return fmt.Errorf("delay injection needs the memory transport")
		}
		s.hub.DelayProcess(1, *delay)
		time.AfterFunc(*heal, s.hub.Heal)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *limit)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		next     = make(chan model.Value, *proposals)
	)
	// The feeder shapes the offered load: everything at once for the
	// steady closed loop, or waves separated by idle gaps for bursts
	// (clients block on the empty channel during a gap, so the service
	// sees real silence between waves).
	go func() {
		defer close(next)
		for i := 0; i < *proposals; {
			wave := *proposals - i
			if *burst > 0 && *burst < wave {
				wave = *burst
			}
			for j := 0; j < wave; j++ {
				next <- model.Value(i + j + 1)
			}
			i += wave
			if *burst > 0 && i < *proposals {
				select {
				case <-time.After(*burstIdle):
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	begin := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range next {
				for {
					fut, err := svc.Propose(ctx, v)
					if err == nil {
						_, err = fut.Wait(ctx)
					}
					if errors.Is(err, adapt.ErrOverload) {
						// Shed: back off and retry the same proposal.
						select {
						case <-time.After(time.Millisecond):
							continue
						case <-ctx.Done():
							err = ctx.Err()
						}
					}
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("proposal %d: %w", v, err)
						}
						errMu.Unlock()
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	if err := s.close(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	if s.rt != nil {
		return benchShardReport(f, s.rt, elapsed, *clients, *burst, *burstIdle)
	}

	st := s.svc.Snapshot()
	title := fmt.Sprintf("bench-service: %s, n=%d t=%d, %s transport, %d clients, batch ≤ %d, ≤ %d inflight",
		*f.algo, *f.n, *f.t, *f.trans, *clients, *f.batch, *f.inflight)
	if *f.adaptive {
		title += ", adaptive"
	}
	if *burst > 0 {
		title += fmt.Sprintf(", bursts of %d every %s", *burst, *burstIdle)
	}
	table := stats.NewTable(title, "metric", "value")
	table.AddRowf("proposals resolved", st.Resolved)
	table.AddRowf("instances decided", st.Instances)
	table.AddRowf("wall time", elapsed.Round(time.Millisecond))
	table.AddRowf("proposals/sec", fmt.Sprintf("%.0f", float64(st.Resolved)/elapsed.Seconds()))
	table.AddRowf("decisions/sec (instances)", fmt.Sprintf("%.0f", float64(st.Instances)/elapsed.Seconds()))
	table.AddRowf("mean batch", fmt.Sprintf("%.2f", float64(st.Resolved)/float64(max(st.Instances, 1))))
	table.AddRowf("batch fill mean %", fmt.Sprintf("%.0f", st.BatchFill.Mean))
	table.AddRowf("latency p50", st.Latency.P50.Round(time.Microsecond))
	table.AddRowf("latency p90", st.Latency.P90.Round(time.Microsecond))
	table.AddRowf("latency p99", st.Latency.P99.Round(time.Microsecond))
	table.AddRowf("latency max", st.Latency.Max.Round(time.Microsecond))
	table.AddRowf("decision latency p50", st.DecisionLatency.P50.Round(time.Microsecond))
	table.AddRowf("round latency p50", st.RoundLatency.P50.Round(time.Microsecond))
	table.AddRowf("rounds min..max (t+2 floor)", fmt.Sprintf("%d..%d (%d)", st.Rounds.Min, st.Rounds.Max, *f.t+2))
	table.AddRowf("check violations", len(st.Violations))
	if *f.adaptive {
		table.AddRowf("controller adjustments", st.Control.Adjustments)
		table.AddRowf("controller ticks", st.Control.Ticks)
		table.AddRowf("effective batch (final)", st.Control.Batch)
		table.AddRowf("effective linger (final)", st.Control.Linger)
		table.AddRowf("selector transitions", st.Control.Transitions)
		table.AddRowf("proposals shed (overload)", st.Overloads)
		table.AddRowf("algorithms", formatAlgs(st.Algorithms))
	}
	if s.jn != nil {
		js := s.jn.Snapshot()
		table.AddRowf("journal decisions durable", js.Decisions)
		table.AddRowf("journal fsyncs (group commits)", js.Syncs)
		table.AddRowf("journal fsync p99", js.SyncLatency.P99.Round(time.Microsecond))
		table.AddRowf("journal segments", js.Segments)
	}
	table.Render(os.Stdout)
	if len(st.Violations) > 0 {
		return fmt.Errorf("%d consensus violations: %v", len(st.Violations), st.Violations)
	}
	if st.Failed > 0 || st.InstanceFailures > 0 {
		return fmt.Errorf("%d proposals / %d instances failed", st.Failed, st.InstanceFailures)
	}
	return nil
}

// benchShardReport renders the sharded bench table: aggregate throughput
// across every group (the number the sharding exists to raise) plus one
// row per group, since latency percentiles do not merge across groups.
func benchShardReport(f serviceFlags, rt *shard.Runtime, elapsed time.Duration, clients, burst int, burstIdle time.Duration) error {
	roll := rt.Snapshot()
	title := fmt.Sprintf("bench-service: %s, n=%d t=%d, %s transport, %d clients, %d groups (%s placement), batch ≤ %d, ≤ %d inflight/group",
		*f.algo, *f.n, *f.t, *f.trans, clients, rt.Groups(), rt.Policy(), *f.batch, *f.inflight)
	if *f.adaptive {
		title += ", adaptive"
	}
	if burst > 0 {
		title += fmt.Sprintf(", bursts of %d every %s", burst, burstIdle)
	}
	table := stats.NewTable(title, "metric", "value")
	table.AddRowf("proposals resolved (all groups)", roll.Resolved)
	table.AddRowf("instances decided (all groups)", roll.Instances)
	table.AddRowf("wall time", elapsed.Round(time.Millisecond))
	table.AddRowf("aggregate proposals/sec", fmt.Sprintf("%.0f", float64(roll.Resolved)/elapsed.Seconds()))
	table.AddRowf("aggregate decisions/sec", fmt.Sprintf("%.0f", float64(roll.Instances)/elapsed.Seconds()))
	table.AddRowf("mean batch", fmt.Sprintf("%.2f", float64(roll.Resolved)/float64(max(roll.Instances, 1))))
	table.AddRowf("proposals shed (overload)", roll.Overloads)
	for g, st := range roll.Groups {
		table.AddRowf(fmt.Sprintf("group %d", g),
			fmt.Sprintf("%d proposals / %d instances, p50 %s p99 %s",
				st.Resolved, st.Instances,
				st.Latency.P50.Round(time.Microsecond), st.Latency.P99.Round(time.Microsecond)))
	}
	table.AddRowf("check violations", len(roll.Violations))
	for g, jn := range rt.Journals() {
		js := jn.Snapshot()
		table.AddRowf(fmt.Sprintf("journal group %d", g),
			fmt.Sprintf("%d decisions durable / %d fsyncs", js.Decisions, js.Syncs))
	}
	table.Render(os.Stdout)
	if len(roll.Violations) > 0 {
		return fmt.Errorf("%d consensus violations: %v", len(roll.Violations), roll.Violations)
	}
	if roll.Failed > 0 || roll.InstanceFailures > 0 {
		return fmt.Errorf("%d proposals / %d instances failed", roll.Failed, roll.InstanceFailures)
	}
	return nil
}
