package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// Probe sizes: enough operations that each median is steady.
const (
	quietInstances = 50
	hopRounds      = 5000
	tcpConnects    = 9
	syncAppends    = 30
	nosyncAppends  = 2000
)

// runProbes times one ROADMAP hop at a time through its public
// functions, at the workload's own system shape, and adds the results
// to a traced run's per-layer metrics.
func runProbes(cfg runCfg, o *outcome) error {
	var links linkMeter
	quiet, err := probeQuietInstance(o.n, o.t, &links)
	if err != nil {
		return fmt.Errorf("quiet instance probe: %w", err)
	}
	o.metrics["runtime.quiet_instance_ms"] = quiet
	frames := links.frameSample()
	if _, ok := o.metrics["wire.codec_ns_per_frame"]; !ok {
		o.metrics["wire.codec_ns_per_frame"] = codecNsPerFrame(frames)
	}
	// The hop probes carry a real round message: the first captured
	// frame with its instance envelope stripped.
	_, _, inner, err := wire.StripGroup(frames[0])
	if err != nil {
		return err
	}
	if o.metrics["transport.hub_hop_us"], err = probeHubHop(o.n, inner); err != nil {
		return fmt.Errorf("hub hop probe: %w", err)
	}
	if o.metrics["transport.mux_route_us"], err = probeMuxRoute(o.n, inner); err != nil {
		return fmt.Errorf("mux route probe: %w", err)
	}
	connect, tcpHop, err := probeTCP(o.n, inner)
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	o.metrics["transport.tcp_hop_us"] = tcpHop
	if _, ok := o.metrics["transport.connect_ms"]; !ok {
		o.metrics["transport.connect_ms"] = connect
	}
	syncUs, err := probeJournal(filepath.Join(cfg.scratch, "probe-sync"), journal.Options{GroupWindow: -1}, syncAppends)
	if err != nil {
		return fmt.Errorf("synced journal probe: %w", err)
	}
	o.metrics["journal.append_sync_ms"] = syncUs / 1000
	if o.metrics["journal.append_nosync_us"], err = probeJournal(filepath.Join(cfg.scratch, "probe-nosync"), journal.Options{NoSync: true}, nosyncAppends); err != nil {
		return fmt.Errorf("unsynced journal probe: %w", err)
	}
	o.notef("layer probes at n=%d t=%d: %d quiet instances, %d hub, mux and loopback TCP round trips, %d TCP cluster connects, %d synced and %d unsynced appends",
		o.n, o.t, quietInstances, hopRounds, tcpConnects, syncAppends, nosyncAppends)
	probeChaos(o)
	return nil
}

// probeChaos measures the fault path — chaos, adapt and fd under
// crashes, partitions and restarts — on the fixed reference sweep.
func probeChaos(o *outcome) {
	ref, walls, compression := chaosReference(o, chaosProbeReps)
	lat := newDist(walls)
	o.metrics["chaos.scenario_ms_p50"] = lat.at(50)
	o.metrics["chaos.scenario_ms_p90"] = lat.at(90)
	o.metrics["chaos.compression"] = compression
	o.metrics["chaos.decided"] = float64(ref.decided)
	o.metrics["chaos.rounds_per_decision"] = ref.roundsPerDecision()
	o.metrics["chaos.suspicions_per_decision"] = ratio(float64(ref.suspicions), float64(ref.instances))
	o.metrics["adapt.selector_transitions"] = float64(ref.transitions)
	o.metrics["adapt.adjustments"] = float64(ref.adjustments)
}

// probeQuietInstance times runtime.New + Start to the last process's
// decision on a quiet hub: the median over quietInstances instances, in
// milliseconds. links meters the endpoints, capturing real frames.
func probeQuietInstance(n, t int, links *linkMeter) (float64, error) {
	props := make([]model.Value, n)
	for i := range props {
		props[i] = model.Value(i + 1)
	}
	var times []float64
	for k := 0; k < quietInstances; k++ {
		hub, err := transport.NewHub(n)
		if err != nil {
			return 0, err
		}
		eps := make([]transport.Transport, n)
		for i := range eps {
			ep, err := hub.Endpoint(model.ProcessID(i + 1))
			if err != nil {
				_ = hub.Close()
				return 0, err
			}
			eps[i] = links.wrap(ep)
		}
		t0 := time.Now()
		cl, err := runtime.New(runtime.Config{
			N: n, T: t, Factory: core.New(core.Options{}), Proposals: props,
			Endpoints: eps, BaseTimeout: svcBaseTimeout,
		})
		if err == nil {
			err = cl.Start(context.Background())
		}
		if err != nil {
			_ = hub.Close()
			return 0, err
		}
		for i := 0; i < n; i++ {
			if res := <-cl.Decisions(); res.Decision.IsBottom() {
				err = fmt.Errorf("p%d stopped undecided", res.ID)
			}
		}
		times = append(times, ms(time.Since(t0)))
		cl.Stop()
		_ = hub.Close() // the cluster stopped every reader
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// probeHubHop times hub endpoint Send to Recv between two processes:
// the median round trip, in microseconds.
func probeHubHop(n int, frame []byte) (float64, error) {
	hub, err := transport.NewHub(n)
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	a, err := hub.Endpoint(1)
	if err != nil {
		return 0, err
	}
	b, err := hub.Endpoint(2)
	if err != nil {
		return 0, err
	}
	return hop(func() error { return a.Send(2, frame) }, b.Recv())
}

// probeMuxRoute times a Mux stream's Send to the peer stream's receive,
// over the hub: the median, in microseconds.
func probeMuxRoute(n int, frame []byte) (float64, error) {
	hub, err := transport.NewHub(n)
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	var muxes [2]*transport.Mux
	var streams [2]transport.Transport
	for i := range muxes {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			return 0, err
		}
		muxes[i] = transport.NewMux(ep)
		defer muxes[i].Close()
		if streams[i], err = muxes[i].Open(1); err != nil {
			return 0, err
		}
	}
	return hop(func() error { return streams[0].Send(2, frame) }, streams[1].Recv())
}

// probeTCP times loopback TCP links at n processes: building a
// TCPCluster's endpoints and connecting every link (the median over
// tcpConnects clusters, in milliseconds), and one TCPEndpoint's Send to
// its peer's Recv (the median, in microseconds).
func probeTCP(n int, frame []byte) (connectMs, hopUs float64, err error) {
	var connects []float64
	for k := 0; k < tcpConnects; k++ {
		cl, err := transport.NewTCPCluster(n)
		if err != nil {
			return 0, 0, err
		}
		eps := make([]*transport.TCPEndpoint, n)
		for i := range eps {
			ep, err := cl.Endpoint(model.ProcessID(i + 1))
			if err != nil {
				_ = cl.Close()
				return 0, 0, err
			}
			eps[i] = ep.(*transport.TCPEndpoint)
		}
		d, err := connectAll(eps)
		if err == nil && k == tcpConnects-1 {
			hopUs, err = tcpHop(eps, n, frame)
		}
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, err
		}
		connects = append(connects, ms(d))
	}
	return median(connects), hopUs, nil
}

// tcpHop drains the dial probes p2 received from its n-1 peers, then
// times p1's Send to p2's Recv over their connected link.
func tcpHop(eps []*transport.TCPEndpoint, n int, frame []byte) (float64, error) {
	for i := 0; i < n-1; i++ {
		select {
		case <-eps[1].Recv():
		case <-time.After(connectWait):
			return 0, fmt.Errorf("p2 received %d of %d dial probes", i, n-1)
		}
	}
	return hop(func() error { return eps[0].Send(2, frame) }, eps[1].Recv())
}

// hop times hopRounds sends each awaited on recv, returning the median
// in microseconds.
func hop(send func() error, recv <-chan []byte) (float64, error) {
	times := make([]float64, 0, hopRounds)
	for i := 0; i < hopRounds; i++ {
		t0 := time.Now()
		if err := send(); err != nil {
			return 0, err
		}
		if _, ok := <-recv; !ok {
			return 0, transport.ErrClosed
		}
		times = append(times, us(time.Since(t0)))
	}
	return median(times), nil
}

// probeJournal times count sequential decision appends to a fresh
// journal opened with opts: the median append, in microseconds.
func probeJournal(dir string, opts journal.Options, count int) (float64, error) {
	j, err := journal.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		t0 := time.Now()
		if err := j.Append(wire.DecisionRecord{Instance: uint64(i + 1), Value: model.Value(i + 1), Round: 3, Batch: 1}); err != nil {
			_ = j.Close()
			return 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return median(times), nil
}

// codecNsPerFrame times decoding and re-encoding captured frames with
// the wire codec: the median pass over all decodable frames, per frame.
func codecNsPerFrame(frames [][]byte) float64 {
	var ok [][]byte
	for _, f := range frames {
		if _, _, _, _, err := wire.DecodeGroupMessage(f); err == nil {
			ok = append(ok, f)
		}
	}
	if len(ok) == 0 {
		return 0
	}
	var passes []float64
	buf := make([]byte, 0, 256)
	for p := 0; p < 21; p++ {
		t0 := time.Now()
		for _, f := range ok {
			g, inst, m, _, err := wire.DecodeGroupMessage(f)
			if err != nil {
				continue
			}
			buf, _ = wire.EncodeGroupMessage(buf[:0], g, inst, m)
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(ok)))
	}
	return median(passes)
}
