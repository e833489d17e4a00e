package transport

import (
	"math/rand"
	"testing"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// waitFor polls cond until it holds, failing the test after 5 seconds —
// readiness polling in place of fixed sleeps, so tests synchronize on
// the condition they actually need instead of on scheduler luck.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// hasStream reports whether m tracks a stream for a group-0 instance
// (opened or buffering) — the sign that the router has seen the
// instance's first frame.
func hasStream(m *Mux, instance uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.streams[streamKey{0, instance}]
	return ok
}

// queuedFrames returns how many frames sit in a group-0 instance's
// stream mailbox queue. The mailbox pump holds one more in hand once a
// frame has arrived, so "all k arrived" reads as queued >= k-1.
func queuedFrames(m *Mux, instance uint64) int {
	m.mu.Lock()
	s := m.streams[streamKey{0, instance}]
	m.mu.Unlock()
	if s == nil {
		return 0
	}
	s.box.mu.Lock()
	defer s.box.mu.Unlock()
	return len(s.box.queue)
}

// retiredState returns a group's retirement frontier and leftover set
// size (0, 0 for a group never retired from).
func retiredState(m *Mux, group uint64) (below uint64, setLen int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.retired[group]
	if !ok {
		return 0, 0
	}
	return r.below, len(r.set)
}

// msgFrame builds a minimal valid version-0 frame (a bare wire message).
func msgFrame(t *testing.T, from model.ProcessID, round model.Round) []byte {
	t.Helper()
	frame, err := wire.EncodeMessage(nil, model.Message{From: from, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// recvFrame pulls one frame from a virtual endpoint with a deadline.
func recvFrame(t *testing.T, ep Transport) []byte {
	t.Helper()
	select {
	case frame, ok := <-ep.Recv():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return frame
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

// muxPair builds a 2-process hub with one mux per endpoint.
func muxPair(t *testing.T) (*Hub, *Mux, *Mux) {
	t.Helper()
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	ep1, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1), NewMux(ep2)
	t.Cleanup(func() { _ = m1.Close(); _ = m2.Close() })
	return hub, m1, m2
}

func TestMuxRoutesByInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	sendA, err := m1.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	sendB, err := m1.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	recvA, err := m2.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	recvB, err := m2.Open(2)
	if err != nil {
		t.Fatal(err)
	}

	fa, fb := msgFrame(t, 1, 10), msgFrame(t, 1, 20)
	if err := sendA.Send(2, fa); err != nil {
		t.Fatal(err)
	}
	if err := sendB.Send(2, fb); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recvB); string(got) != string(fb) {
		t.Fatalf("instance 2 got % x, want % x", got, fb)
	}
	if got := recvFrame(t, recvA); string(got) != string(fa) {
		t.Fatalf("instance 1 got % x, want % x", got, fa)
	}
	if sendA.Self() != 1 || recvA.Self() != 2 {
		t.Fatalf("Self() = %d, %d", sendA.Self(), recvA.Self())
	}
}

// TestMuxBuffersUnopenedInstance pins the reliable-channel guarantee
// across multiplexing: frames for an instance the receiver has not opened
// yet are buffered and delivered at Open, not dropped.
func TestMuxBuffersUnopenedInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 3)
	if err := send.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	// Wait until the router has seen (and is buffering) the early frame.
	waitFor(t, "router to buffer the early frame", func() bool { return hasStream(m2, 7) })
	recv, err := m2.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recv); string(got) != string(frame) {
		t.Fatalf("buffered frame mangled: % x", got)
	}
}

// TestMuxLegacyInterop checks both directions of the version-0
// compatibility stream: bare frames from a non-muxed peer arrive on
// instance 0, and instance-0 sends go out as bare frames a non-muxed peer
// can read.
func TestMuxLegacyInterop(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	ep1, err := hub.Endpoint(1) // legacy peer: no mux
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMux(ep2)
	defer func() { _ = m2.Close() }()
	compat, err := m2.Open(0)
	if err != nil {
		t.Fatal(err)
	}

	frame := msgFrame(t, 1, 1)
	if err := ep1.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, compat); string(got) != string(frame) {
		t.Fatalf("legacy frame on instance 0: % x, want % x", got, frame)
	}

	reply := msgFrame(t, 2, 1)
	if err := compat.Send(1, reply); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, ep1); string(got) != string(reply) {
		t.Fatalf("legacy peer received % x, want bare % x", got, reply)
	}
}

func TestMuxRetire(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-recv.Recv(); ok {
		t.Fatal("retired stream's receive channel still open")
	}
	// Late frames for a retired instance are dropped, not re-buffered.
	if err := send.Send(2, msgFrame(t, 1, 9)); err != nil {
		t.Fatal(err)
	}
	// A marker frame on a fresh instance proves the router has passed
	// the late frame: the hub mailbox and router are FIFO per sender.
	marker, err := m1.Open(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := marker.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "router to pass the late frame", func() bool { return hasStream(m2, 4) })
	if _, err := m2.Open(3); err == nil {
		t.Fatal("reopening a retired instance succeeded")
	}
	m2.mu.Lock()
	_, buffered := m2.streams[streamKey{0, 3}]
	m2.mu.Unlock()
	if buffered {
		t.Fatal("late frame for retired instance re-created a stream")
	}
}

// TestMuxRetireCompaction checks that the retired-instance bookkeeping
// compacts to a frontier instead of growing with every instance.
func TestMuxRetireCompaction(t *testing.T) {
	_, m1, _ := muxPair(t)
	// Retire 0..99 out of order in pairs: the set must fully compact.
	for i := 1; i < 100; i += 2 {
		m1.RetireGroup(0, uint64(i))
	}
	for i := 0; i < 100; i += 2 {
		m1.RetireGroup(0, uint64(i))
	}
	below, setLen := retiredState(m1, 0)
	if below != 100 || setLen != 0 {
		t.Fatalf("retiredBelow=%d set=%d, want 100 and 0", below, setLen)
	}
	if _, err := m1.Open(42); err == nil {
		t.Fatal("opening a frontier-retired instance succeeded")
	}
}

func TestMuxDoubleOpen(t *testing.T) {
	_, m1, _ := muxPair(t)
	if _, err := m1.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Open(1); err == nil {
		t.Fatal("double open succeeded")
	}
}

// TestMuxOverTCP runs the routing test over real loopback connections.
func TestMuxOverTCP(t *testing.T) {
	tc, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	ep1, err := tc.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tc.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1), NewMux(ep2)
	defer func() { _ = m1.Close(); _ = m2.Close() }()

	send, err := m1.Open(11)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(11)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 4)
	if err := send.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recv); string(got) != string(frame) {
		t.Fatalf("TCP mux frame mangled: % x", got)
	}
}

// TestMuxUnderlyingClosePropagates checks that closing the underlying
// endpoint closes every virtual receive channel, so round loops observe
// the shutdown.
func TestMuxUnderlyingClosePropagates(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	ep1, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMux(ep1)
	defer func() { _ = m1.Close() }()
	s, err := m1.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-s.Recv():
		if ok {
			t.Fatal("got a frame after underlying close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual receive channel did not close")
	}
}

// TestMuxNeverOpenedBufferedInstance pins the fate of frames buffered
// for an instance that is never opened: Retire drops them without a
// goroutine or channel leak, and a mux Close with buffered-but-unopened
// streams closes their mailboxes too.
func TestMuxNeverOpenedBufferedInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := send.Send(2, msgFrame(t, 1, model.Round(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the router to buffer the frames for the unopened
	// instance (the pump holds one in hand, so 7 queued means all 8
	// arrived).
	waitFor(t, "router to buffer 8 frames", func() bool {
		return hasStream(m2, 9) && queuedFrames(m2, 9) >= 7
	})
	// Retiring the never-opened instance drops the buffer for good.
	m2.RetireGroup(0, 9)
	m2.mu.Lock()
	_, still := m2.streams[streamKey{0, 9}]
	m2.mu.Unlock()
	if still {
		t.Fatal("retired unopened stream still tracked")
	}
	if _, err := m2.Open(9); err == nil {
		t.Fatal("opening a retired never-opened instance succeeded")
	}

	// And a Close with a buffered unopened stream must close its
	// mailbox (no pump goroutine left behind).
	if err := send.Send(2, msgFrame(t, 1, 99)); err == nil {
		// Frame for retired instance 9: dropped. Now buffer one for a
		// fresh never-opened instance and close the whole mux.
		send2, err := m1.Open(10)
		if err != nil {
			t.Fatal(err)
		}
		if err := send2.Send(2, msgFrame(t, 1, 1)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "router to buffer the unopened frame", func() bool { return hasStream(m2, 10) })
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxRetireMidFlight races inbound delivery against retirement: a
// sender floods an instance while the receiver retires it mid-stream.
// Frames must arrive until the retirement point and be dropped after it,
// with no panic, deadlock, or send error either side — the scenario of a
// decided instance's flood traffic arriving at a shard that has moved
// on. Run with -race, this is also the locking test for the
// router/Retire interleaving.
func TestMuxRetireMidFlight(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(4)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(4)
	if err != nil {
		t.Fatal(err)
	}

	const flood = 200
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < flood; i++ {
			if err := send.Send(2, msgFrame(t, 1, model.Round(i+1))); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Consume a few frames to prove delivery, then retire mid-flood.
	for i := 0; i < 5; i++ {
		recvFrame(t, recv)
	}
	m2.RetireGroup(0, 4)
	if err := <-sendErr; err != nil {
		t.Fatalf("send during retirement: %v", err)
	}
	// The retired stream's channel must drain to closed, not wedge.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-recv.Recv():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("retired stream's channel never closed")
		}
	}
}

// TestMuxCompactionRandomOrder retires a window of instances in a random
// permutation: whatever the order, the retired set must compact to the
// frontier with nothing left over — the property that keeps retirement
// state O(inflight) instead of O(lifetime).
func TestMuxCompactionRandomOrder(t *testing.T) {
	_, m1, _ := muxPair(t)
	const window = 257
	perm := rand.New(rand.NewSource(42)).Perm(window)
	for i, p := range perm {
		m1.RetireGroup(0, uint64(p))
		below, setLen := retiredState(m1, 0)
		if int(below)+setLen != i+1 {
			t.Fatalf("after %d retirements: frontier %d + set %d != %d", i+1, below, setLen, i+1)
		}
	}
	below, setLen := retiredState(m1, 0)
	if below != window || setLen != 0 {
		t.Fatalf("final state: retiredBelow=%d set=%d, want %d and 0", below, setLen, window)
	}
}

// TestMuxRetireBelow covers the recovery path's bulk retirement: opened
// and buffered streams below the frontier close, later instances are
// untouched, retirements already recorded above the frontier keep
// compacting, and the call is monotonic.
func TestMuxRetireBelow(t *testing.T) {
	_, m1, m2 := muxPair(t)
	low, err := m2.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := m2.Open(8)
	if err != nil {
		t.Fatal(err)
	}
	// Buffer a frame for a never-opened stale instance (3) as a crashed
	// lifetime would leave behind.
	send3, err := m1.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := send3.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "router to buffer the stale frame", func() bool { return hasStream(m2, 3) })
	// An out-of-order retirement above the frontier, to be compacted
	// through.
	m2.RetireGroup(0, 5)

	m2.RetireGroupBelow(0, 5)

	if _, ok := <-low.Recv(); ok {
		t.Fatal("stream below frontier still delivering")
	}
	below, setLen := retiredState(m2, 0)
	m2.mu.Lock()
	_, stale := m2.streams[streamKey{0, 3}]
	m2.mu.Unlock()
	if below != 6 || setLen != 0 {
		t.Fatalf("retiredBelow=%d set=%d, want 6 (5 compacted through) and 0", below, setLen)
	}
	if stale {
		t.Fatal("buffered stale stream survived RetireBelow")
	}
	if _, err := m2.Open(2); err == nil {
		t.Fatal("opening below the frontier succeeded")
	}

	// Instances at or above the frontier are untouched.
	sendHigh, err := m1.Open(8)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 2)
	if err := sendHigh.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, high); string(got) != string(frame) {
		t.Fatalf("instance above frontier got % x", got)
	}

	// Monotonic: lowering the frontier is a no-op.
	m2.RetireGroupBelow(0, 2)
	below, _ = retiredState(m2, 0)
	if below != 6 {
		t.Fatalf("frontier regressed to %d", below)
	}
}

// TestMuxPendingNotification checks the join signal of multi-process
// members: frames for an unopened instance fire the callback (possibly
// repeatedly), and opened instances stop firing it.
func TestMuxPendingNotification(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)

	notified := make(chan uint64, 16)
	ma := NewMux(a)
	defer ma.Close()
	mb := NewMuxGroupNotify(b, func(_, instance uint64) {
		select {
		case notified <- instance:
		default:
		}
	})
	defer mb.Close()

	sa, err := ma.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-notified:
		if got != 7 {
			t.Fatalf("pending instance %d, want 7", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pending notification")
	}

	// Opening drains the buffered frame; further frames notify nobody.
	sb, err := mb.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sb)
	for len(notified) > 0 {
		<-notified
	}
	if err := sa.Send(2, msgFrame(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sb)
	select {
	case got := <-notified:
		t.Fatalf("opened instance notified as pending: %d", got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestMuxRoutesByGroup checks the group dimension of routing: the same
// instance ID under two different groups is two independent streams,
// and neither collides with the group-0 stream of that ID.
func TestMuxRoutesByGroup(t *testing.T) {
	_, m1, m2 := muxPair(t)
	type pair struct{ group, instance uint64 }
	addrs := []pair{{0, 5}, {1, 5}, {2, 5}, {2, 6}}
	sends := make(map[pair]Transport)
	recvs := make(map[pair]Transport)
	for _, a := range addrs {
		s, err := m1.OpenGroup(a.group, a.instance)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m2.OpenGroup(a.group, a.instance)
		if err != nil {
			t.Fatal(err)
		}
		sends[a], recvs[a] = s, r
	}
	// Send a distinct round number per address; each must arrive on
	// exactly its own stream.
	for i, a := range addrs {
		if err := sends[a].Send(2, msgFrame(t, 1, model.Round(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		want := msgFrame(t, 1, model.Round(i+1))
		if got := recvFrame(t, recvs[a]); string(got) != string(want) {
			t.Fatalf("group %d instance %d got % x, want % x", a.group, a.instance, got, want)
		}
	}
}

// TestMuxGroupRetireIndependent pins per-group retirement: retiring an
// instance in one group neither closes nor blocks the same instance ID
// in another group, and bulk frontier retirement is scoped to its
// group.
func TestMuxGroupRetireIndependent(t *testing.T) {
	_, m1, m2 := muxPair(t)
	r1, err := m2.OpenGroup(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.OpenGroup(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	m2.RetireGroup(1, 4)
	if _, ok := <-r1.Recv(); ok {
		t.Fatal("retired group-1 stream still delivering")
	}
	// Group 2's stream with the same instance ID is untouched.
	s2, err := m1.OpenGroup(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 7)
	if err := s2.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, r2); string(got) != string(frame) {
		t.Fatalf("group-2 stream got % x, want % x", got, frame)
	}
	if _, err := m2.OpenGroup(1, 4); err == nil {
		t.Fatal("reopening a retired group-1 instance succeeded")
	}

	// Bulk retirement in group 1 leaves group 2's frontier at zero.
	m2.RetireGroupBelow(1, 100)
	if below, _ := retiredState(m2, 1); below != 100 {
		t.Fatalf("group-1 frontier = %d, want 100", below)
	}
	if below, setLen := retiredState(m2, 2); below != 0 || setLen != 0 {
		t.Fatalf("group-2 retirement state moved: below=%d set=%d", below, setLen)
	}
	if _, err := m2.OpenGroup(2, 50); err != nil {
		t.Fatalf("group-2 instance blocked by group-1 frontier: %v", err)
	}
}

// TestMuxGroupNotify checks the group-aware pending callback and the
// group-0 scoping of the legacy callback.
func TestMuxGroupNotify(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)

	type pair struct{ group, instance uint64 }
	notified := make(chan pair, 16)
	ma := NewMux(a)
	defer ma.Close()
	mb := NewMuxGroupNotify(b, func(group, instance uint64) {
		select {
		case notified <- pair{group, instance}:
		default:
		}
	})
	defer mb.Close()

	sa, err := ma.OpenGroup(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-notified:
		if got != (pair{3, 11}) {
			t.Fatalf("pending (%d, %d), want (3, 11)", got.group, got.instance)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pending notification")
	}

	// Group 0 — the compatibility group — signals like any other.
	s0, err := ma.Open(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-notified:
		if got != (pair{0, 6}) {
			t.Fatalf("pending (%d, %d), want (0, 6)", got.group, got.instance)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pending notification for group 0")
	}
}

// TestMuxGroupOverTCP runs grouped routing over real loopback
// connections: two groups sharing one TCP connection pair.
func TestMuxGroupOverTCP(t *testing.T) {
	tc, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	ep1, err := tc.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tc.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1), NewMux(ep2)
	defer func() { _ = m1.Close(); _ = m2.Close() }()

	for group := uint64(1); group <= 2; group++ {
		send, err := m1.OpenGroup(group, 11)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := m2.OpenGroup(group, 11)
		if err != nil {
			t.Fatal(err)
		}
		frame := msgFrame(t, 1, model.Round(group))
		if err := send.Send(2, frame); err != nil {
			t.Fatal(err)
		}
		if got := recvFrame(t, recv); string(got) != string(frame) {
			t.Fatalf("TCP group %d frame mangled: % x", group, got)
		}
	}
}
