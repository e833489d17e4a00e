package service

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// reserveAddrs reserves n distinct loopback addresses by binding and
// releasing ephemeral ports.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

// peerEndpoint builds member id's TCP endpoint over the shared address
// list.
func peerEndpoint(t *testing.T, id model.ProcessID, addrs []string) *transport.TCPEndpoint {
	t.Helper()
	peers := make([]transport.Peer, len(addrs))
	for i, a := range addrs {
		peers[i] = transport.Peer{ID: model.ProcessID(i + 1), Addr: a}
	}
	ep, err := transport.NewTCPEndpoint(
		transport.PeerConfig{Self: id, Cluster: "peer-test", Peers: peers},
		transport.TCPOptions{RetryMin: 5 * time.Millisecond, RetryMax: 100 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// peerOpts is the fast-test member configuration.
func peerOpts(jn *journal.Journal) PeerOptions {
	return PeerOptions{
		T:           1,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 15 * time.Millisecond,
		MaxBatch:    2,
		Linger:      2 * time.Millisecond,
		MaxInflight: 4,
		JoinTimeout: 5 * time.Second,
		Journal:     jn,
	}
}

// proposeAll drives count proposals into member svc and records each
// resolved instance/value pair into live (guarded by mu), failing the
// test on any error.
func proposeAll(t *testing.T, svc *PeerService, base, count int, live map[uint64]model.Value, mu *sync.Mutex, wg *sync.WaitGroup) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	for i := 0; i < count; i++ {
		fut, err := svc.Propose(ctx, model.Value(base+i))
		if err != nil {
			cancel()
			t.Fatalf("propose %d: %v", base+i, err)
		}
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			dec, err := fut.Wait(ctx)
			if err != nil {
				t.Errorf("proposal %d: %v", v, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
				t.Errorf("instance %d resolved as %d and %d", dec.Instance, prev, dec.Value)
			}
			live[dec.Instance] = dec.Value
		}(base + i)
	}
	// cancel when every future of this batch resolved
	go func() {
		wg.Wait()
		cancel()
	}()
}

// auditJournals replays every member journal directory and cross-checks
// the union against the live observations with check.Replay.
func auditJournals(t *testing.T, live map[uint64]model.Value, dirs ...string) {
	t.Helper()
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
			t.Fatalf("replay %s: %v", dir, err)
		}
	}
	rep := check.Replay(records, starts, live)
	if len(rep.Violations) > 0 {
		t.Fatalf("cross-member audit: %v", rep.Violations)
	}
}

// TestPeerServiceAgreement runs three members over real TCP endpoints in
// one OS process, proposes at every member concurrently, and audits the
// union of their journals plus every live observation.
func TestPeerServiceAgreement(t *testing.T) {
	const n = 3
	addrs := reserveAddrs(t, n)
	dir := t.TempDir()

	members := make([]*PeerService, n)
	dirs := make([]string, n)
	live := make(map[uint64]model.Value)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := model.ProcessID(i + 1)
		ep := peerEndpoint(t, id, addrs)
		t.Cleanup(func() { _ = ep.Close() })
		dirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", id))
		jn, err := journal.Open(dirs[i], journal.Options{GroupWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = jn.Close() })
		svc, err := NewPeer(peerOpts(jn), n, ep)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = svc
	}

	for i, svc := range members {
		proposeAll(t, svc, 100*(i+1), 6, live, &mu, &wg)
	}
	wg.Wait()
	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatalf("close member %d: %v", i+1, err)
		}
		st := svc.Snapshot()
		if st.Resolved != 6 {
			t.Fatalf("member %d resolved %d of 6 (failed %d)", i+1, st.Resolved, st.Failed)
		}
	}
	// Journals are auditable only once their members closed them.
	// (Close of the journal happens in cleanup order; flush by closing
	// explicitly first.)
	mu.Lock()
	defer mu.Unlock()
	auditJournals(t, live, dirs...)
}

// TestPeerServiceRestartRejoin is the crash/rejoin contract end to end
// in one OS process: three members decide, one member crash-stops
// (Abort), restarts over the same address with its journal, and serves
// more proposals; the union of all journals across both lifetimes plus
// every live observation audits clean.
func TestPeerServiceRestartRejoin(t *testing.T) {
	const n = 3
	addrs := reserveAddrs(t, n)
	dir := t.TempDir()
	live := make(map[uint64]model.Value)
	var mu sync.Mutex

	dirs := make([]string, n)
	eps := make([]*transport.TCPEndpoint, n)
	jns := make([]*journal.Journal, n)
	members := make([]*PeerService, n)
	for i := 0; i < n; i++ {
		id := model.ProcessID(i + 1)
		eps[i] = peerEndpoint(t, id, addrs)
		dirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", id))
		jn, err := journal.Open(dirs[i], journal.Options{GroupWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		jns[i] = jn
		svc, err := NewPeer(peerOpts(jn), n, eps[i])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = svc
	}
	defer func() {
		for i := range members {
			members[i].Abort()
			_ = jns[i].Close()
			_ = eps[i].Close()
		}
	}()

	// First lifetime: everyone proposes and resolves.
	var wg1 sync.WaitGroup
	for i, svc := range members {
		proposeAll(t, svc, 100*(i+1), 4, live, &mu, &wg1)
	}
	wg1.Wait()

	// Crash member 3: service aborts, endpoint and journal close — the
	// whole process is gone.
	members[2].Abort()
	_ = jns[2].Close()
	_ = eps[2].Close()

	// Members 1 and 2 keep deciding through the outage (t=1 tolerates
	// the missing member).
	var wgOut sync.WaitGroup
	proposeAll(t, members[0], 500, 4, live, &mu, &wgOut)
	wgOut.Wait()

	// Member 3 restarts: same address, same journal directory, fresh
	// process state. Its transport links re-land via the peers' bounded
	// backoff, its frontier resumes past both lifetimes' claims.
	eps[2] = peerEndpoint(t, 3, addrs)
	jn3, err := journal.Open(dirs[2], journal.Options{GroupWindow: time.Millisecond})
	if err != nil {
		t.Fatalf("reopen journal after crash: %v", err)
	}
	jns[2] = jn3
	svc3, err := NewPeer(peerOpts(jn3), n, eps[2])
	if err != nil {
		t.Fatal(err)
	}
	members[2] = svc3

	// Second lifetime: the restarted member proposes and resolves, and
	// the survivors' proposals keep resolving too.
	var wg2 sync.WaitGroup
	for i, svc := range members {
		proposeAll(t, svc, 1000+100*(i+1), 4, live, &mu, &wg2)
	}
	wg2.Wait()

	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatalf("close member %d: %v", i+1, err)
		}
	}
	st := members[2].Snapshot()
	if st.Resolved != 4 {
		t.Fatalf("restarted member resolved %d of 4 (failed %d)", st.Resolved, st.Failed)
	}
	for i := range jns {
		_ = jns[i].Close()
	}
	mu.Lock()
	defer mu.Unlock()
	auditJournals(t, live, dirs...)
	// Abort+Close in the deferred cleanup are now no-ops.
}

// TestPeerServiceHubMembers runs members over plain hub endpoints — the
// member layer is transport-agnostic, so an in-memory "multi-process"
// cluster must behave identically (and much faster, which keeps this in
// the default -race sweep).
func TestPeerServiceHubMembers(t *testing.T) {
	const n = 3
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	live := make(map[uint64]model.Value)
	var mu sync.Mutex
	var wg sync.WaitGroup
	members := make([]*PeerService, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewPeer(peerOpts(nil), n, ep)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = svc
	}
	for i, svc := range members {
		proposeAll(t, svc, 10*(i+1), 8, live, &mu, &wg)
	}
	wg.Wait()
	total := 0
	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatalf("close member %d: %v", i+1, err)
		}
		st := svc.Snapshot()
		total += st.Resolved
		if st.Failed > 0 {
			t.Fatalf("member %d failed %d proposals", i+1, st.Failed)
		}
	}
	if total != 3*8 {
		t.Fatalf("resolved %d of %d proposals", total, 3*8)
	}
}

// TestNewPeerValidation covers the constructor error cases.
func TestNewPeerValidation(t *testing.T) {
	hub, err := transport.NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ep, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPeer(peerOpts(nil), 1, ep); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewPeer(peerOpts(nil), 2, nil); err == nil {
		t.Fatal("nil endpoint accepted")
	}
	opts := peerOpts(nil)
	opts.Factory = nil
	if _, err := NewPeer(opts, 2, ep); err == nil {
		t.Fatal("nil factory accepted")
	}
	// Self outside 1..n.
	hub3, err := transport.NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hub3.Close()
	ep3, err := hub3.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPeer(peerOpts(nil), 2, ep3); err == nil {
		t.Fatal("endpoint outside the cluster accepted")
	}
}

// TestPeerServiceVirtualTime runs four single-member services on one
// virtual-clock hub: proposals enter every member, the test drives the
// clock, and every decision must land at round t+2 — the paper's
// synchronous bound as a live assertion — with check.Replay over the
// members' journals reporting no violation. Join counts are not pinned:
// which member initiates a slot and which joins it depends on the
// scheduling of the members' batchers.
func TestPeerServiceVirtualTime(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	const n, tol, perMember = 4, 1, 6
	vc := clock.NewVirtual()
	hub, err := transport.NewHubClock(n, vc)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	dir := t.TempDir()
	dirs := make([]string, n)
	jns := make([]*journal.Journal, n)
	members := make([]*Service, n)
	for i := range members {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", i+1))
		if jns[i], err = journal.Open(dirs[i], journal.Options{NoSync: true}); err != nil {
			t.Fatal(err)
		}
		members[i], err = New(Config{
			N: n, T: tol,
			Factory:     core.New(core.Options{}),
			MaxBatch:    2,
			MaxInflight: 4,
			Journal:     jns[i],
			Clock:       vc,
		}, []transport.Transport{ep})
		if err != nil {
			t.Fatal(err)
		}
	}

	var futs []*Future
	for i, svc := range members {
		for k := 0; k < perMember; k++ {
			fut, err := svc.Propose(context.Background(), model.Value(100*(i+1)+k))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
	}
	// drive runs fn on its own goroutine while the test goroutine drives
	// the virtual clock, until fn returns.
	drive := func(what string, fn func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		if !vc.Run(done) {
			t.Fatalf("%s wedged at virtual %s", what, vc.Since(time.Time{}))
		}
	}
	live := make(map[uint64]model.Value)
	var decs []Decision
	var errs []error
	drive("proposals", func() {
		for _, fut := range futs {
			dec, err := fut.Wait(context.Background())
			decs, errs = append(decs, dec), append(errs, err)
		}
	})
	for i, dec := range decs {
		if errs[i] != nil {
			t.Fatalf("proposal %d: %v", i, errs[i])
		}
		if dec.Round != tol+2 {
			t.Errorf("instance %d decided at round %d, want t+2 = %d", dec.Instance, dec.Round, tol+2)
		}
		if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
			t.Fatalf("instance %d resolved %d and %d", dec.Instance, prev, dec.Value)
		}
		live[dec.Instance] = dec.Value
	}
	// Close waits out every instance's flood grace, which runs on the
	// virtual clock too.
	drive("close", func() {
		for _, svc := range members {
			_ = svc.Close()
		}
	})
	for _, jn := range jns {
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	auditJournals(t, live, dirs...)
}

// TestPeerServiceMetrics checks that a service with one local member
// exports the same instruments as the single-process service — the
// rounds-per-decision price-gap series and the decision counter — and,
// adaptive and journaled, journals a decision-trace record per launch.
func TestPeerServiceMetrics(t *testing.T) {
	const n = 3
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	members := make([]*Service, n)
	for i := range members {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		opts := peerOpts(nil)
		if i == 0 {
			opts = peerOpts(jn)
			opts.Metrics = reg
			opts.Adaptive = &adapt.Config{}
		}
		if members[i], err = NewPeer(opts, n, ep); err != nil {
			t.Fatal(err)
		}
	}
	live := make(map[uint64]model.Value)
	var mu sync.Mutex
	var wg sync.WaitGroup
	proposeAll(t, members[0], 10, 4, live, &mu, &wg)
	wg.Wait()
	for _, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	text := reg.Text()
	for _, want := range []string{
		`indulgence_rounds_per_decision_bucket{alg="A_t+2",group="0"`,
		`indulgence_decisions_total{group="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry lacks %s:\n%s", want, text)
		}
	}
	traces := 0
	if _, err := journal.Replay(dir, func(e journal.Entry) error {
		if e.Trace != nil {
			traces++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Fatal("adaptive journaled member wrote no decision-trace records")
	}
}
