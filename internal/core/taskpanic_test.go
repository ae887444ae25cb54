package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestTaskPanicRethrownAtJoin: a panic in an explicit task body, deferred
// or undeferred (if(false), run inline by the encountering thread), must
// not hang the region in the barrier's task drain. The region joins, the
// encountering goroutine sees the panic rethrown exactly once, the thread
// budget is back to zero, and the next region on the same runtime runs its
// tasks to completion. Each case runs under a timeout, so a regression
// fails instead of hanging the suite.
func TestTaskPanicRethrownAtJoin(t *testing.T) {
	for _, undeferred := range []bool{false, true} {
		for n := 1; n <= 4; n++ {
			t.Run(fmt.Sprintf("undeferred=%v/threads=%d", undeferred, n), func(t *testing.T) {
				rt := testRuntime(n)
				defer rt.Pool().Shutdown()
				done := make(chan struct{})
				go func() {
					defer close(done)
					taskPanicCase(t, rt, undeferred)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("region with a panicking task did not return within 10s")
				}
			})
		}
	}
}

func taskPanicCase(t *testing.T, rt *Runtime, undeferred bool) {
	var opts []TaskOption
	if undeferred {
		opts = append(opts, TaskIf(false))
	}
	rethrown := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				rethrown++
				if r != "task bug" {
					t.Errorf("recovered %v, want \"task bug\"", r)
				}
			}
		}()
		rt.Parallel(func(th *Thread) {
			th.Single(func() {
				th.Task(func(*Thread) { panic("task bug") }, opts...)
			})
		})
	}()
	if rethrown != 1 {
		t.Errorf("panic rethrown %d times on the encountering goroutine, want 1", rethrown)
	}
	if used := rt.Pool().ThreadBudgetUsed(); used != 0 {
		t.Errorf("thread budget after the panicking region = %d, want 0", used)
	}

	var ran atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			for i := 0; i < 8; i++ {
				th.Task(func(*Thread) { ran.Add(1) }, opts...)
			}
		})
	})
	if got := ran.Load(); got != 8 {
		t.Errorf("next region ran %d of 8 tasks", got)
	}
}
