package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"
)

// median of xs (mean of the middle two for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive values; NaN when empty.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// samples collects durations of one kind of operation, in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s samples) median() float64 { return median(s) }

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// measure times f after a forced collection, so each timed call starts
// from a collected heap instead of inheriting the previous call's garbage.
func measure(f func()) time.Duration {
	runtime.GC()
	return timed(f)
}

// hist is a latency histogram in nanoseconds: exact below 2048 ns, then
// 1024 sub-buckets per power of two (relative resolution 1/1024). It keeps
// millions of region latencies in a fixed half MiB.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histExact = 2048
	histSub   = 1024
)

func newHist() *hist { return &hist{counts: make([]uint64, histExact+64*histSub)} }

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	shift := bits.Len64(v) - 11 // ≥ 1; v>>shift ∈ [1024, 2048)
	return histExact + (shift-1)*histSub + int(v>>shift) - histSub
}

// histBucket returns bucket i's lower bound and width in ns.
func histBucket(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	k := i - histExact
	shift := k/histSub + 1
	return float64(uint64(k%histSub+histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(uint64(max(d, 0)))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, interpolated linearly inside the
// bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, w := histBucket(i)
			return lo + w*(rank-float64(cum)+0.5)/float64(c)
		}
		cum += c
	}
	lo, w := histBucket(len(h.counts) - 1)
	return lo + w
}
