package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read from fewer samples is one or two outliers, not
// a percentile.
const minBeyond = 10

// ladder is the percentile ladder tails are chosen from, ascending.
var ladder = []float64{50, 90, 99, 99.9, 99.99}

// rank returns the 0-based nearest-rank index of percentile p (0..100)
// in n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// beyond returns how many of n samples lie strictly beyond the
// nearest-rank sample of percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it; ok is false when even the median
// has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		if beyond(n, ladder[i]) >= minBeyond {
			return ladder[i], true
		}
	}
	return 0, false
}

// dist is a sorted sample of one timing, in milliseconds.
type dist struct {
	sorted []float64
}

// newDist sorts a copy of xs.
func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// n returns the sample count.
func (d dist) n() int { return len(d.sorted) }

// at returns nearest-rank percentile p (0 for an empty dist).
func (d dist) at(p float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[rank(len(d.sorted), p)]
}

// p99 returns the 99th percentile when at least minBeyond samples lie
// beyond it, and otherwise the highest percentile that qualifies — or
// the maximum, when none does. The percentile used is returned with it.
func (d dist) p99() (v, p float64) {
	p = 99
	if beyond(d.n(), 99) < minBeyond {
		var ok bool
		if p, ok = tailPercentile(d.n()); !ok {
			p = 100
		}
	}
	return d.at(p), p
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	return newDist(xs).at(50)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a lock-free log-linear histogram of nanosecond durations for
// seams that fire too often to keep every sample (a frame send): 16
// sub-buckets per power of two, so a reported percentile is within
// about 6% of the true sample.
type hist struct {
	counts [64 * subBuckets]atomic.Int64
}

const subBits = 4
const subBuckets = 1 << subBits

// bucket maps a value to its bucket index.
func bucket(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return (e+1)*subBuckets + int(v>>uint(e))&(subBuckets-1)
}

// lower returns the smallest value of bucket i.
func lower(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	e := i/subBuckets - 1
	return uint64(subBuckets+i%subBuckets) << uint(e)
}

// observe records one duration.
func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucket(uint64(d))].Add(1)
}

// quantile returns the midpoint of the bucket holding nearest-rank
// percentile p, and the sample count.
func (h *hist) quantile(p float64) (time.Duration, int) {
	total := 0
	for i := range h.counts {
		total += int(h.counts[i].Load())
	}
	if total == 0 {
		return 0, 0
	}
	want := rank(total, p)
	seen := 0
	for i := range h.counts {
		seen += int(h.counts[i].Load())
		if seen > want {
			lo := lower(i)
			hi := lower(i + 1)
			return time.Duration(lo + (hi-lo)/2), total
		}
	}
	return 0, total
}
