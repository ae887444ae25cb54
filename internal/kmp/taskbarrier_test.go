package kmp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/task"
)

// Regression tests for the interaction between task-executing barrier waits
// and the epoch-door park path: a worker that fully parked (reached the
// blocked stage of its door wait) between regions must, after the next
// fork wakes it, still pick up tasks released *while it waits at the
// region-end barrier* — including successors released by a dependency chain
// it is not running itself. Before barriers executed tasks, the shape below
// (master spawns and then blocks until a worker has run the tasks)
// deadlocked by construction.

// parkWorkers drives the pool's hot-team workers through a region and then
// sleeps past the door-wait sleep stage so they reach the blocking park.
func parkWorkers(p *Pool) {
	p.Fork(ForkSpec{}, func(tm *Team, tid int) {})
	p.WaitQuiescent()
	time.Sleep(10 * time.Millisecond) // doorSleepRounds backoff is ~6ms
}

func TestBarrierWaitExecutesReleasedSuccessorAfterDoorPark(t *testing.T) {
	p := NewPool(fixedICVs(2))
	defer p.Shutdown()
	for round := 0; round < 5; round++ {
		parkWorkers(p)
		var aRan, bRan atomic.Bool
		var bTid atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Fork(ForkSpec{}, func(tm *Team, tid int) {
				if tid != 0 {
					return // straight to the region-end barrier: must help
				}
				root := task.NewRoot(tm.Tasks())
				deps := []task.Dep{{Addr: uintptr(0x100 + round), Kind: task.DepInOut}}
				tm.Tasks().SpawnOpt(tid, root, nil, task.SpawnOpts{Deps: deps}, func(*task.Unit) {
					aRan.Store(true)
				})
				tm.Tasks().SpawnOpt(tid, root, nil, task.SpawnOpts{Deps: deps}, func(u *task.Unit) {
					bRan.Store(true)
					bTid.Store(int64(u.Tid()))
				})
				// The master refuses to run anything: if the worker's
				// barrier wait does not execute tasks, nobody can, and the
				// spin below never ends.
				for !bRan.Load() {
					runtime.Gosched()
				}
			})
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: deadlock — parked worker never executed the released successor", round)
		}
		if !aRan.Load() || !bRan.Load() {
			t.Fatalf("round %d: tasks aRan=%v bRan=%v", round, aRan.Load(), bRan.Load())
		}
		if bTid.Load() != 1 {
			t.Fatalf("round %d: successor ran on tid %d, want the barrier-waiting worker (1)", round, bTid.Load())
		}
	}
}

// TestBarrierWaitStealsLateSpawnedTasks covers the imbalance case without
// dependencies: an early-arriving worker sits at the region-end barrier
// while the master keeps producing tasks; the worker must execute them.
func TestBarrierWaitStealsLateSpawnedTasks(t *testing.T) {
	p := NewPool(fixedICVs(2))
	defer p.Shutdown()
	parkWorkers(p)
	var workerRan atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Fork(ForkSpec{}, func(tm *Team, tid int) {
			if tid != 0 {
				return
			}
			root := task.NewRoot(tm.Tasks())
			// Give the worker time to reach (and escalate inside) the
			// region-end barrier before the tasks exist.
			time.Sleep(2 * time.Millisecond)
			var ran atomic.Int64
			for i := 0; i < 64; i++ {
				tm.Tasks().Spawn(tid, root, nil, func(u *task.Unit) {
					if u.Tid() != 0 {
						workerRan.Add(1)
					}
					ran.Add(1)
				})
			}
			for ran.Load() < 64 {
				runtime.Gosched()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: barrier-waiting worker never drained late-spawned tasks")
	}
	if workerRan.Load() == 0 {
		t.Fatal("the barrier-waiting worker executed no tasks")
	}
}
