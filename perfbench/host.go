package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Host evidence. These numbers describe the machine a run saw, not the
// program; they are recorded with every run and never used to drop or
// repeat one, so a program that stops using a core shows up as a slower
// run rather than as a rejected machine.

// spin does n iterations of dependent floating-point work, the load used
// both to engage every core and to probe how many of them compute at once.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x = math.Sqrt(x)
		}
	}
	return x
}

// mustSpin spins and uses the result, so the work cannot be optimised away.
func mustSpin(n int) {
	if spin(n) <= 0 {
		panic("perfbench: spin underflow")
	}
}

// onAll runs f on n goroutines at once and waits for all of them.
func onAll(n int, f func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// warmHost loads every core with spinning goroutines for d. On the
// virtual machines this benchmark was written on, a second vCPU ran pure
// compute at half speed until the process had kept it busy for 0.5–1 s.
func warmHost(nproc int, d time.Duration) {
	deadline := time.Now().Add(d)
	onAll(nproc, func() {
		for time.Now().Before(deadline) {
			mustSpin(200_000)
		}
	})
}

// probeSpeedup times the same spin on one goroutine and on nproc
// goroutines at once: nproc·t1/tN is nproc on a host whose cores all
// compute at full speed.
func probeSpeedup(nproc int) float64 {
	const work = 3_000_000
	var one, all []float64
	for rep := 0; rep < 3; rep++ {
		one = append(one, timed(func() { mustSpin(work) }).Seconds())
		all = append(all, timed(func() { onAll(nproc, func() { mustSpin(work) }) }).Seconds())
	}
	return float64(nproc) * median(one) / median(all)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// triadMiB is the size of each STREAM triad array. STREAM sizes arrays
// at four times the last-level cache, which is not affordable on a
// machine whose hypervisor reports a 300 MiB L3 while other tenants share
// its memory, so the size is stated with the figure instead.
const triadMiB = 32

// triadGBs runs the STREAM triad a = b + s·c on nproc goroutines over
// three triadMiB arrays and returns the median rate of five repetitions,
// counting 24 bytes per element.
func triadGBs(nproc int) float64 {
	n := triadMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	part := func(w int) (int, int) { return w * n / nproc, (w + 1) * n / nproc }
	var rates []float64
	for rep := 0; rep < 5; rep++ {
		d := timed(func() {
			var wg sync.WaitGroup
			for w := 0; w < nproc; w++ {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						a[i] = b[i] + 3*c[i]
					}
				}(part(w))
			}
			wg.Wait()
		})
		rates = append(rates, 24*float64(n)/d.Seconds()/1e9)
	}
	if a[n-1] != 7 {
		return math.NaN()
	}
	runtime.KeepAlive(a)
	return median(rates)
}
