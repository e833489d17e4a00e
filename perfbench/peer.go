package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// peerRate is the open-loop rate of peer-tcp-journal: about a fifth of
// its closed-loop proposal peak.
const peerRate = 300

// connectWait bounds how long setup waits for every link to connect.
const connectWait = 10 * time.Second

// peerStack is four PeerService members in one process, each with its
// own loopback TCP endpoint and its own synced journal.
type peerStack struct {
	cluster  *transport.TCPCluster
	journals []*journal.Journal
	dirs     []string
	members  []*service.PeerService
	connect  time.Duration // first link dial to every link connected
}

// close shuts the members, then their journals and endpoints.
func (s *peerStack) close() error {
	var errs []string
	for i, m := range s.members {
		if err := m.Close(); err != nil {
			errs = append(errs, fmt.Sprintf("member %d: %v", i+1, err))
		}
	}
	for i, j := range s.journals {
		if err := j.Close(); err != nil {
			errs = append(errs, fmt.Sprintf("journal %d: %v", i+1, err))
		}
	}
	if err := s.cluster.Close(); err != nil {
		errs = append(errs, "endpoints: "+err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("close peers: %s", strings.Join(errs, "; "))
	}
	return nil
}

// dialProbe is a group-envelope marker byte with no group ID. Links
// dial lazily on their first frame; this frame makes every link dial
// during setup, and the receiving mux drops it (wire.StripGroup rejects
// it), so it reaches no instance.
var dialProbe = wire.AppendGroupHeader(nil, 1, 0)[:1]

// buildPeers builds the endpoints, waits until every member's links are
// connected, opens the journals under dir and starts the members. links,
// when non-nil, meters every endpoint.
func buildPeers(dir string, links *linkMeter) (*peerStack, error) {
	cl, err := transport.NewTCPCluster(svcN)
	if err != nil {
		return nil, err
	}
	s := &peerStack{cluster: cl}
	fail := func(err error) (*peerStack, error) {
		_ = s.close()
		return nil, err
	}
	eps := make([]*transport.TCPEndpoint, svcN)
	for i := range eps {
		ep, err := cl.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			return fail(err)
		}
		eps[i] = ep.(*transport.TCPEndpoint)
	}
	if s.connect, err = connectAll(eps); err != nil {
		return fail(err)
	}
	for i, ep := range eps {
		d := filepath.Join(dir, fmt.Sprintf("p%d", i+1))
		jn, err := journal.Open(d, journal.Options{})
		if err != nil {
			return fail(err)
		}
		s.journals = append(s.journals, jn)
		s.dirs = append(s.dirs, d)
		var tr transport.Transport = ep
		if links != nil {
			tr = links.wrap(ep)
		}
		m, err := service.NewPeer(service.PeerOptions{
			T:           svcT,
			Factory:     core.New(core.Options{}),
			BaseTimeout: svcBaseTimeout,
			MaxBatch:    svcBatch,
			Linger:      svcLinger,
			MaxInflight: svcInflight,
			Journal:     jn,
		}, svcN, tr)
		if err != nil {
			return fail(err)
		}
		s.members = append(s.members, m)
	}
	return s, nil
}

// connectAll makes every endpoint dial every other with dialProbe and
// waits until each one's Connected() covers all its peers; it returns
// the time from the first dial.
func connectAll(eps []*transport.TCPEndpoint) (time.Duration, error) {
	t0 := time.Now()
	for _, ep := range eps {
		for j := 1; j <= len(eps); j++ {
			if to := model.ProcessID(j); to != ep.Self() {
				if err := ep.Send(to, dialProbe); err != nil {
					return 0, err
				}
			}
		}
	}
	for _, ep := range eps {
		for ep.Connected().Len() < len(eps)-1 {
			if time.Since(t0) > connectWait {
				return 0, fmt.Errorf("p%d connected to %v after %s", ep.Self(), ep.Connected(), connectWait)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return time.Since(t0), nil
}

// runPeerTCP is the peer-tcp-journal workload: the wire codec, TCP
// links, fsync group commit and the peer slot/join protocol.
func runPeerTCP(cfg runCfg) (*outcome, error) {
	o := newOutcome()
	o.n, o.t = svcN, svcT
	var links *linkMeter
	if cfg.traced {
		links = &linkMeter{}
	}
	var connects []float64
	build := 0
	var setups parts
	stack, err := setupRepeated(setupReps, 1, &setups, func() (*peerStack, error) {
		build++
		s, err := buildPeers(filepath.Join(cfg.scratch, fmt.Sprintf("peers-%d", build)), links)
		if err == nil {
			connects = append(connects, ms(s.connect))
		}
		return s, err
	}, func(s *peerStack) error { return s.close() })
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"], _ = setups.quietMedian()
	o.notef("setup: %d loopback TCP endpoints until Connected() covers every peer, %d synced journals, %d members, built %d times; setup_s is the median over the builds with the least host steal",
		svcN, svcN, svcN, setupReps)
	run, err := runLoad(func(ctx context.Context, k int, v model.Value) (*service.Future, error) {
		return stack.members[k%svcN].Propose(ctx, v)
	}, cfg.seed, peerRate, cfg.measure)
	if err != nil {
		_ = stack.close()
		return nil, err
	}
	var jstats []journal.Stats
	for _, j := range stack.journals {
		jstats = append(jstats, j.Snapshot())
	}
	if err := stack.close(); err != nil {
		return nil, err
	}
	o.notef("proposals spread round-robin over %d members", svcN)
	run.report(o)
	insts := run.instances(o)
	var sts []service.Stats
	for _, m := range stack.members {
		sts = append(sts, m.Snapshot())
	}
	auditPeers(o, stack.dirs, insts)
	if links != nil {
		decided := float64(len(insts))
		run.reportWorkload(o)
		run.spanOpen(cfg.spans)
		reportServiceStats(o, sts)
		o.metrics["runtime.rounds_per_decision"] = roundsPerDecision(insts)
		o.metrics["service.proposals_per_decision"] = float64(run.tally().ok) / decided
		var queue []float64
		var joined, all int
		for _, st := range sts {
			queue = append(queue, ms(st.Latency.P50-st.DecisionLatency.P50))
			joined += st.JoinedInstances
			all += st.Instances
		}
		o.metrics["service.queue_ms_p50"] = median(queue)
		o.metrics["service.joined_ratio"] = ratio(float64(joined), float64(all))
		links.report(o, decided)
		o.metrics["transport.connect_ms"] = median(connects)
		o.metrics["wire.codec_ns_per_frame"] = codecNsPerFrame(links.frameSample())
		reportJournals(o, jstats, decided)
		run.proc.report(o, decided)
	}
	return o, nil
}

// auditPeers replays every member's journal and audits the union with
// check.Replay against every decision the harness observed.
func auditPeers(o *outcome, dirs []string, insts map[uint64]instEntry) {
	var records []wire.DecisionRecord
	var starts []wire.StartRecord
	for _, dir := range dirs {
		_, err := journal.Replay(dir, func(e journal.Entry) error {
			switch {
			case e.Trace != nil:
			case e.Start:
				starts = append(starts, wire.StartRecord{Instance: e.Instance(), Alg: e.Alg})
			default:
				records = append(records, e.Decision)
			}
			return nil
		})
		if err != nil {
			o.checkf("journals replay", false, "replay %s: %v", dir, err)
			return
		}
	}
	live := make(map[uint64]model.Value, len(insts))
	for inst, e := range insts {
		live[inst] = e.decided
	}
	rep := check.Replay(records, starts, live)
	o.checkf("member journals pass check.Replay uniform agreement", len(rep.Violations) == 0,
		"%s", strings.Join(rep.Violations, "; "))
	o.notef("journal audit: %d decision records and %d start claims over %d members", len(records), len(starts), len(dirs))
}

// reportJournals fills the journal.* metrics from the members' journal
// snapshots.
func reportJournals(o *outcome, js []journal.Stats, decided float64) {
	var appends, syncs int
	var p50, p99 []float64
	for _, j := range js {
		appends += j.Appends
		syncs += j.Syncs
		p50 = append(p50, ms(j.SyncLatency.P50))
		p99 = append(p99, ms(j.SyncLatency.P99))
	}
	o.metrics["journal.fsync_ms_p50"] = median(p50)
	o.metrics["journal.fsync_ms_p99"] = median(p99)
	o.metrics["journal.appends_per_fsync"] = ratio(float64(appends), float64(syncs))
	o.metrics["journal.fsyncs_per_decision"] = ratio(float64(syncs), decided)
}
