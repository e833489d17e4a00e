package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/transport"
)

// span is one timed interval of a traced run. Spans of one proposal
// share its root's ID as Parent; Link ties a proposal span to the
// consensus instance (Decision.Instance) that decided it, and an
// instance span carries the instance ID in Link too.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Link   uint64 `json:"instance,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{} }

// id reserves a span ID.
func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a span over [start, end], in nanoseconds since origin.
func (r *recorder) add(id, parent uint64, name string, start, end int64, link uint64) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: end, Link: link}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as JSON lines, replacing any earlier file.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// stepMeter sums the time the algorithms spend in StartRound and
// EndRound — the core layer's busy time — over every process of every
// instance or run built through its factory.
type stepMeter struct {
	busy atomic.Int64
}

// wrap returns a factory whose algorithms time their steps. The wrapper
// forwards Name, Decision and model.PayloadMutator (the simulator
// type-asserts the latter), so the program runs unchanged.
func (m *stepMeter) wrap(f model.Factory) model.Factory {
	return func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
		a, err := f(ctx, v)
		if err != nil {
			return nil, err
		}
		t := &timedAlg{inner: a, m: m}
		if pm, ok := a.(model.PayloadMutator); ok {
			return &timedMutator{timedAlg: t, pm: pm}, nil
		}
		return t, nil
	}
}

func (m *stepMeter) busyTime() time.Duration { return time.Duration(m.busy.Load()) }

type timedAlg struct {
	inner model.Algorithm
	m     *stepMeter
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) StartRound(k model.Round) model.Payload {
	t0 := time.Now()
	p := a.inner.StartRound(k)
	a.m.busy.Add(int64(time.Since(t0)))
	return p
}

func (a *timedAlg) EndRound(k model.Round, delivered []model.Message) {
	t0 := time.Now()
	a.inner.EndRound(k, delivered)
	a.m.busy.Add(int64(time.Since(t0)))
}

func (a *timedAlg) Decision() (model.Value, bool) { return a.inner.Decision() }

type timedMutator struct {
	*timedAlg
	pm model.PayloadMutator
}

func (a *timedMutator) MutatesReceivedPayloads() bool { return a.pm.MutatesReceivedPayloads() }

// captureLimit bounds how many sent frames a linkMeter keeps for the
// wire codec measurement.
const captureLimit = 4096

// linkMeter counts the frames and bytes sent through wrapped endpoints,
// times every Send, and keeps copies of the first frames for the codec
// measurement.
type linkMeter struct {
	frames, bytes atomic.Int64
	send          hist
	mu            sync.Mutex
	captured      [][]byte
}

// meteredEndpoint is a transport.Transport whose Send is metered. Recv
// is the inner endpoint's own channel, so the wrapper adds no goroutine
// hop on the receive path.
type meteredEndpoint struct {
	transport.Transport
	m *linkMeter
}

func (m *linkMeter) wrap(ep transport.Transport) transport.Transport {
	return &meteredEndpoint{Transport: ep, m: m}
}

func (e *meteredEndpoint) Send(to model.ProcessID, frame []byte) error {
	t0 := time.Now()
	err := e.Transport.Send(to, frame)
	e.m.send.observe(time.Since(t0))
	if e.m.frames.Add(1) <= captureLimit {
		c := append([]byte(nil), frame...)
		e.m.mu.Lock()
		e.m.captured = append(e.m.captured, c)
		e.m.mu.Unlock()
	}
	e.m.bytes.Add(int64(len(frame)))
	return err
}

// frameSample returns the captured frames.
func (m *linkMeter) frameSample() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.captured
}

// report fills the transport.* metrics for a run that decided units
// values.
func (m *linkMeter) report(o *outcome, units float64) {
	o.metrics["transport.frames_per_decision"] = ratio(float64(m.frames.Load()), units)
	o.metrics["transport.bytes_per_decision"] = ratio(float64(m.bytes.Load()), units)
	p99, _ := m.send.quantile(99)
	o.metrics["transport.send_us_p99"] = us(p99)
}
