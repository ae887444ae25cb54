package barrier

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/icv"
)

// Waiting strategy of the barrier, shared with the kmp door wait.
//
// libomp waits on futexes with a spin prologue controlled by KMP_BLOCKTIME /
// OMP_WAIT_POLICY. Goroutines have no futex, but the same three-stage shape
// works: spin (cheap, latency-optimal when the wait is short), yield to the
// scheduler (lets the releasing goroutine run when cores are oversubscribed),
// then sleep with bounded backoff (passive; keeps CPU free on long waits).
// PolicyActive never sleeps; PolicyPassive skips the spin stage.

const (
	activeSpins  = 4096
	sleepStartNs = 1000       // 1 µs
	sleepMaxNs   = 100 * 1000 // 100 µs
)

// YieldRounds is the number of scheduler yields a waiter performs after its
// spin budget and before escalating to sleeping. Shared with the kmp door
// wait so workers and barriers keep one blocktime shape.
const YieldRounds = 64

// SleepBackoff sleeps escalation step k of the shared wait policy: 1 µs
// doubling per step up to a 100 µs cap.
func SleepBackoff(k int) {
	ns := sleepStartNs << uint(min(k, 7))
	if ns > sleepMaxNs {
		ns = sleepMaxNs
	}
	time.Sleep(time.Duration(ns))
}

// uniprocessor caches whether GOMAXPROCS is 1, so the wait fast path does
// not re-enter the runtime on every barrier arrival. It is refreshed on
// every barrier construction and whenever the kmp layer builds a cold team
// (see RefreshProcs).
var uniprocessor atomic.Bool

func init() { RefreshProcs() }

// RefreshProcs re-reads GOMAXPROCS into the cached wait heuristics. Called
// per barrier construction and per cold team build by internal/kmp; a
// GOMAXPROCS change is picked up at the next team rebuild.
func RefreshProcs() { uniprocessor.Store(runtime.GOMAXPROCS(0) == 1) }

// spinBudget returns how long to spin before yielding. When goroutines
// outnumber processors, spinning only steals cycles from the thread being
// waited on (libomp's oversubscription rule: yield immediately), so the
// spin phase is skipped on single-processor or oversubscribed hosts.
func spinBudget(policy icv.WaitPolicy) int {
	if policy == icv.PolicyPassive {
		return 0
	}
	if uniprocessor.Load() {
		return 0
	}
	return activeSpins
}

// spinInt64 blocks until *v >= want. A non-nil w is polled for deferred
// work between checks (the barrier-as-task-scheduling-point behaviour);
// doing work resets the backoff escalation, since fresh work usually means
// more is coming and the release is being computed by a peer.
func spinInt64(v *atomic.Int64, want int64, policy icv.WaitPolicy, w Work, id int) {
	for i := spinBudget(policy); i > 0; i-- {
		if v.Load() >= want {
			return
		}
	}
	for i := 0; ; i++ {
		if v.Load() >= want {
			return
		}
		if w != nil && w.RunOne(id) {
			i = 0
			continue
		}
		if policy == icv.PolicyActive || i < YieldRounds {
			runtime.Gosched()
			continue
		}
		SleepBackoff(i - YieldRounds)
	}
}
