package transport

import (
	"fmt"
	"sync"

	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// streamKey addresses one virtual endpoint of a Mux: a consensus group
// and an instance within it. The single-group service uses group 0 —
// the compatibility group — exclusively.
type streamKey struct {
	group    uint64
	instance uint64
}

// groupRetired is one group's retirement state: every instance ID below
// `below` is retired, plus every member of set. Services retire
// instances roughly in open order, so the set stays at most a few
// inflight-bounds large instead of growing with service lifetime.
type groupRetired struct {
	below uint64
	set   map[uint64]struct{}
}

// Mux multiplexes many consensus instances — across many independent
// consensus groups — over one underlying Transport endpoint, so a whole
// sharded runtime's worth of concurrent instances shares a single set
// of physical connections (one Hub mailbox, or one TCP connection per
// ordered process pair) instead of one cluster per instance. Outbound
// frames are wrapped in the wire envelope carrying the (group,
// instance) address; inbound frames are routed to the matching virtual
// endpoint. Version-0 frames from pre-instance peers route to (0, 0)
// and version-1 frames to (0, instance): group 0 is the compatibility
// group, and a mux used only through the group-0 entry points behaves
// byte-identically to the pre-group mux.
//
// Frames for an instance that has not been opened locally yet are
// buffered, never dropped — a peer shard may legitimately start an
// instance and broadcast before this process opens it, and the reliable-
// channel axiom must survive multiplexing. Frames for a retired (closed)
// instance are dropped: they can only be post-decision flood traffic.
// Retirement state is tracked per group, so each group's frontier
// advances independently of its neighbors'.
type Mux struct {
	ep        Transport
	onPending func(group, instance uint64)

	mu         sync.Mutex
	streams    map[streamKey]*muxStream
	retired    map[uint64]*groupRetired
	closed     bool
	done       chan struct{}
	routerDone chan struct{}

	mIn, mOut *metrics.Counter
}

// NewMux starts a multiplexer over ep. The mux reads every inbound frame
// of ep from the moment of creation; the caller must no longer use
// ep.Recv directly.
func NewMux(ep Transport) *Mux { return NewMuxGroupNotify(ep, nil) }

// NewMuxGroupNotify is NewMux with a pending callback: onPending (when
// non-nil) is invoked from the router goroutine every time a frame
// arrives for a (group, instance) stream that is not currently open
// locally — the signal a service with remote members uses to join an
// instance a peer started. The callback must not block (it stalls every
// instance's inbound traffic if it does) and may be invoked repeatedly
// for the same stream while it stays unopened, so receivers dedupe.
func NewMuxGroupNotify(ep Transport, onPending func(group, instance uint64)) *Mux {
	m := &Mux{
		ep:         ep,
		onPending:  onPending,
		streams:    make(map[streamKey]*muxStream),
		retired:    make(map[uint64]*groupRetired),
		done:       make(chan struct{}),
		routerDone: make(chan struct{}),
	}
	go m.route()
	return m
}

// Self returns the identity of the underlying endpoint.
func (m *Mux) Self() model.ProcessID { return m.ep.Self() }

// Instrument attaches frame counters: in counts every well-formed
// inbound frame the router delivers or buffers, out every frame sent
// through a virtual endpoint. Nil counters (the uninstrumented
// default) cost nothing.
func (m *Mux) Instrument(in, out *metrics.Counter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mIn, m.mOut = in, out
}

// Open returns the virtual endpoint of the given group-0 consensus
// instance; it is OpenGroup(0, instance).
func (m *Mux) Open(instance uint64) (Transport, error) {
	return m.OpenGroup(0, instance)
}

// OpenGroup returns the virtual endpoint of the given consensus
// instance of the given group. Frames that arrived for the instance
// before OpenGroup are already buffered and will be delivered in order.
// Opening an instance twice, or after it was retired, is an error.
func (m *Mux) OpenGroup(group, instance uint64) (Transport, error) {
	key := streamKey{group, instance}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.isRetiredLocked(key) {
		return nil, fmt.Errorf("transport: group %d instance %d already retired", group, instance)
	}
	s, ok := m.streams[key]
	if !ok {
		s = &muxStream{mux: m, key: key, box: newMailbox()}
		m.streams[key] = s
	} else if s.opened {
		return nil, fmt.Errorf("transport: group %d instance %d already open", group, instance)
	}
	s.opened = true
	return s, nil
}

// RetireGroup closes an instance's virtual endpoint and permanently
// drops any late frames addressed to it. Safe to call for instances
// never opened.
func (m *Mux) RetireGroup(group, instance uint64) {
	key := streamKey{group, instance}
	m.mu.Lock()
	s := m.streams[key]
	delete(m.streams, key)
	if !m.isRetiredLocked(key) {
		r := m.retiredFor(group)
		r.set[instance] = struct{}{}
		for {
			if _, ok := r.set[r.below]; !ok {
				break
			}
			delete(r.set, r.below)
			r.below++
		}
	}
	m.mu.Unlock()
	if s != nil {
		s.box.close()
	}
}

// RetireGroupBelow retires every instance of group with ID below
// frontier at once — the recovery path's bulk retirement. A restarted
// service raises its group's frontier past every journaled instance, so
// frames still in flight from a previous process lifetime (flood
// traffic of instances decided before the crash) are dropped on arrival
// instead of buffering forever for instances nobody will open. Buffered
// frames of such instances are discarded too; other groups' streams are
// untouched. A no-op when frontier does not extend the group's retired
// prefix.
func (m *Mux) RetireGroupBelow(group, frontier uint64) {
	m.mu.Lock()
	r := m.retiredFor(group)
	if frontier <= r.below {
		m.mu.Unlock()
		return
	}
	var stale []*muxStream
	for key, s := range m.streams {
		if key.group == group && key.instance < frontier {
			delete(m.streams, key)
			stale = append(stale, s)
		}
	}
	for id := range r.set {
		if id < frontier {
			delete(r.set, id)
		}
	}
	r.below = frontier
	for {
		if _, ok := r.set[r.below]; !ok {
			break
		}
		delete(r.set, r.below)
		r.below++
	}
	m.mu.Unlock()
	for _, s := range stale {
		s.box.close()
	}
}

// Close shuts the mux down: every virtual endpoint's receive channel
// closes and the router stops. The underlying endpoint is left open — it
// belongs to whoever created it.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = nil
	m.mu.Unlock()
	close(m.done)
	<-m.routerDone
	for _, s := range streams {
		s.box.close()
	}
	return nil
}

// retiredFor returns (creating if needed) a group's retirement state;
// callers hold mu.
func (m *Mux) retiredFor(group uint64) *groupRetired {
	r, ok := m.retired[group]
	if !ok {
		r = &groupRetired{set: make(map[uint64]struct{})}
		m.retired[group] = r
	}
	return r
}

// isRetiredLocked reports whether key was retired; callers hold mu.
func (m *Mux) isRetiredLocked(key streamKey) bool {
	r, ok := m.retired[key.group]
	if !ok {
		return false
	}
	if key.instance < r.below {
		return true
	}
	_, ok = r.set[key.instance]
	return ok
}

// route moves inbound frames from the underlying endpoint to the virtual
// endpoint addressed by their (group, instance), creating buffer streams
// for instances not opened yet. It exits when the mux or the underlying
// endpoint closes; virtual receive channels of a closed underlying
// endpoint close too, so round loops observe the closure.
func (m *Mux) route() {
	defer close(m.routerDone)
	for {
		select {
		case <-m.done:
			return
		case frame, ok := <-m.ep.Recv():
			if !ok {
				m.mu.Lock()
				m.closed = true
				streams := make([]*muxStream, 0, len(m.streams))
				for _, s := range m.streams {
					streams = append(streams, s)
				}
				m.streams = nil
				m.mu.Unlock()
				for _, s := range streams {
					s.box.close()
				}
				return
			}
			group, instance, inner, err := wire.StripGroup(frame)
			if err != nil {
				continue // a malformed envelope is dropped, like a malformed message
			}
			key := streamKey{group, instance}
			m.mu.Lock()
			if m.closed || m.isRetiredLocked(key) {
				m.mu.Unlock()
				continue
			}
			m.mIn.Inc()
			s, ok := m.streams[key]
			if !ok {
				s = &muxStream{mux: m, key: key, box: newMailbox()}
				m.streams[key] = s
			}
			pending := !s.opened
			m.mu.Unlock()
			s.box.put(inner)
			if pending && m.onPending != nil {
				m.onPending(group, instance)
			}
		}
	}
}

// muxStream is one (group, instance)'s virtual endpoint over a Mux.
type muxStream struct {
	mux    *Mux
	key    streamKey
	box    *mailbox
	opened bool
}

var _ Transport = (*muxStream)(nil)

// Self implements Transport.
func (s *muxStream) Self() model.ProcessID { return s.mux.Self() }

// Send implements Transport: the frame travels over the underlying
// endpoint wrapped in the envelope addressing the stream. Frames must be
// version-0 wire frames (bare messages), which is what the runtime
// produces. Group 0 emits the pre-group layouts — instance 0 sends
// bare (it is the compatibility stream, and a bare frame routes to
// (0, 0) on any peer, muxed or not), other group-0 instances the
// version-1 envelope — so a single-group deployment's frames are
// byte-identical to what it sent before groups existed.
//
// Sends on a closed mux or a retired instance fail with ErrClosed
// instead of leaking onto the shared endpoint: round loops treat a send
// failure as terminal, which gives an aborted service's leftover nodes
// crash-stop semantics — a successor service reusing the endpoints (and,
// past the recovered frontier, the instance IDs) never sees their
// frames.
func (s *muxStream) Send(to model.ProcessID, frame []byte) error {
	s.mux.mu.Lock()
	dead := s.mux.closed || s.mux.isRetiredLocked(s.key)
	out := s.mux.mOut
	s.mux.mu.Unlock()
	if dead {
		return ErrClosed
	}
	out.Inc()
	if s.key.group == 0 && s.key.instance == 0 {
		return s.mux.ep.Send(to, frame)
	}
	wrapped := wire.AppendGroupHeader(make([]byte, 0, len(frame)+20), s.key.group, s.key.instance)
	return s.mux.ep.Send(to, append(wrapped, frame...))
}

// Recv implements Transport.
func (s *muxStream) Recv() <-chan []byte { return s.box.out }

// Close implements Transport by retiring the instance on the mux.
func (s *muxStream) Close() error {
	s.mux.RetireGroup(s.key.group, s.key.instance)
	return nil
}
