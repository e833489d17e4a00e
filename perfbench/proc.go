package main

import (
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSample is a whole-process reading of CPU time, allocation and GC.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcPause  uint64
	maxRSSKB int64
}

// readProc takes a reading.
func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    m.TotalAlloc,
		gcPause:  m.PauseTotalNs,
		maxRSSKB: ru.Maxrss,
	}
}

// procDelta is the change between two readings.
type procDelta struct {
	wall, cpu time.Duration
	allocKB   float64
	gcPause   time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocKB: float64(b.alloc-a.alloc) / 1024,
		gcPause: time.Duration(b.gcPause - a.gcPause),
	}
}

// report fills the proc.* per-layer metrics for units decided units of
// work (instances, runs, or decided proposals).
func (d procDelta) report(o *outcome, units float64) {
	o.metrics["proc.cpu_per_wall"] = ratio(float64(d.cpu), float64(d.wall))
	o.metrics["proc.alloc_kb_per_decision"] = ratio(d.allocKB, units)
	o.metrics["proc.gc_pause_ms"] = ms(d.gcPause)
}

// maxRSSMB returns the process's peak resident set so far.
func maxRSSMB() float64 {
	return float64(readProc().maxRSSKB) / 1024
}

// ticksPerSecond is the clock tick rate /proc/stat counts in (USER_HZ,
// 100 on Linux).
const ticksPerSecond = 100

// stealPeriod is how often a stealSampler reads the host's steal time:
// a few samples per latency window or closed-loop cycle.
const stealPeriod = 50 * time.Millisecond

// stealSampler reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat, in clock ticks summed over every
// CPU) every stealPeriod while a run's load is on. On a shared host
// the steal share moves between about 1% and 30% within minutes, so
// the parts of a run are weighed against it (see quietIndices). Where
// /proc/stat has no steal column every reading is 0.
type stealSampler struct {
	mu    sync.Mutex
	at    []int64 // ns since origin
	ticks []int64
	stopC chan struct{}
	done  chan struct{}
}

// startSteal starts sampling.
func startSteal() *stealSampler {
	s := &stealSampler{stopC: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.stopC:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// stop takes a last sample and waits for the sampler to end.
func (s *stealSampler) stop() {
	close(s.stopC)
	<-s.done
}

func (s *stealSampler) sample() {
	v := readSteal()
	t := now()
	s.mu.Lock()
	s.at, s.ticks = append(s.at, t), append(s.ticks, v)
	s.mu.Unlock()
}

// between returns the steal ticks sampled within [t0, t1]: from the
// last sample at or before t0 to the first at or after t1. A nil
// sampler reads 0.
func (s *stealSampler) between(t0, t1 int64) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.at) == 0 {
		return 0
	}
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i] > t0 }) - 1
	j := sort.Search(len(s.at), func(j int) bool { return s.at[j] >= t1 })
	i = max(i, 0)
	j = min(j, len(s.at)-1)
	return s.ticks[j] - s.ticks[i]
}

// total returns the ticks stolen from the first to the last sample.
func (s *stealSampler) total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ticks) == 0 {
		return 0
	}
	return s.ticks[len(s.ticks)-1] - s.ticks[0]
}

// stolenMs converts steal ticks summed over every CPU into the
// milliseconds each CPU lost on average. Work that keeps every CPU busy
// (an exploration's worker pool) takes that much longer in wall time
// than on a host that steals nothing: on a 2-vCPU guest, explorations
// under 60% steal ran 2.5 times as long. Subtracting it leaves what the
// program itself cost.
func stolenMs(ticks int64) float64 {
	return float64(ticks) / ticksPerSecond * 1000 / float64(goruntime.NumCPU())
}

// quietIndices returns the indices of the parts of a run (latency
// windows, closed-loop cycles, explorations, set-up blocks) during
// which the host stole at most what it stole during the median part:
// the half of the run the hypervisor disturbed least. A vCPU the host
// takes away stalls whatever runs on it, so on a shared host each
// part's time follows the steal, which moves from minute to minute
// with other guests' load, not with the program. With no steal at all
// every part is kept.
func quietIndices(steals []int64) []int {
	xs := make([]float64, len(steals))
	for i, s := range steals {
		xs[i] = float64(s)
	}
	limit := median(xs)
	var kept []int
	for i, s := range steals {
		if float64(s) <= limit {
			kept = append(kept, i)
		}
	}
	return kept
}

// parts is one metric's samples over the parts of a run, each with the
// host steal ticks read during it.
type parts struct {
	xs     []float64
	steals []int64
}

func (p *parts) add(x float64, steal int64) {
	p.xs, p.steals = append(p.xs, x), append(p.steals, steal)
}

// quietMedian returns the median of the samples quietIndices keeps, and
// how many it kept.
func (p parts) quietMedian() (float64, int) {
	kept := quietIndices(p.steals)
	q := make([]float64, 0, len(kept))
	for _, i := range kept {
		q = append(q, p.xs[i])
	}
	return median(q), len(q)
}

// readSteal returns the steal column of /proc/stat's aggregate cpu
// line, or 0 when there is none.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
