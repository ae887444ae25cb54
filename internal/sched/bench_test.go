package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/icv"
)

// EPCC schedbench-style benchmarks: price each scheduler's chunk hand-out
// protocol by driving one whole worksharing loop per op on a team of
// goroutines. The bodies are deliberately tiny — a few flops per iteration
// — so the measurement is dominated by the scheduler itself, the EPCC
// methodology. "balanced" costs the same everywhere; "imbalanced" costs
// proportional to the iteration's position (the mandelbrot-row shape that
// forces dynamic-style scheduling in the first place).
//
// The headline comparison is BenchmarkSched_Dynamic (chunk 1: one shared
// atomic RMW per iteration) against BenchmarkSched_Steal (per-thread
// ranges, batched local pops, steal-half): the stealer replaces O(trip)
// shared-cursor operations with O(nthreads·log trip) slot operations.

const benchTrip = 1 << 14

func benchTeamSize() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4 // keep the protocol multi-party even on small hosts
	}
	return n
}

// benchWork burns a position-dependent number of flops when imbalanced.
func benchWork(k int64, imbalanced bool) float64 {
	acc := float64(k)
	if imbalanced {
		for spin := k & 63; spin > 0; spin-- {
			acc = acc*1.0000001 + 1
		}
	}
	return acc
}

func benchSched(b *testing.B, s icv.Schedule, imbalanced bool) {
	nthreads := benchTeamSize()
	var sc Scheduler
	if !Static(s) {
		sc = New(s, benchTrip, nthreads)
	}
	var sink atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && sc != nil && !sc.Reset(benchTrip, nthreads) {
			b.Fatal("Reset refused")
		}
		var wg sync.WaitGroup
		for tid := 0; tid < nthreads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				var acc float64
				for ci := int64(0); ; ci++ {
					var c Chunk
					var ok bool
					if sc == nil {
						c, ok = StaticChunk(s, benchTrip, nthreads, tid, ci)
					} else {
						c, ok = sc.Next(tid)
					}
					if !ok {
						break
					}
					for k := c.Begin; k < c.End; k++ {
						acc += benchWork(k, imbalanced)
					}
				}
				sink.Add(int64(acc))
			}(tid)
		}
		wg.Wait()
	}
	_ = sink.Load()
}

func benchBoth(b *testing.B, s icv.Schedule) {
	b.Run("balanced", func(b *testing.B) { benchSched(b, s, false) })
	b.Run("imbalanced", func(b *testing.B) { benchSched(b, s, true) })
}

func BenchmarkSched_Static(b *testing.B) {
	benchBoth(b, icv.Schedule{Kind: icv.StaticSched})
}

func BenchmarkSched_Dynamic(b *testing.B) {
	benchBoth(b, icv.Schedule{Kind: icv.DynamicSched, Chunk: 1})
}

func BenchmarkSched_Guided(b *testing.B) {
	benchBoth(b, icv.Schedule{Kind: icv.GuidedSched})
}

func BenchmarkSched_Steal(b *testing.B) {
	benchBoth(b, icv.Schedule{Kind: icv.StealSched})
}
