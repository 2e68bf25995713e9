package cluster

import (
	"testing"
	"time"
)

// A backlog that never drains must not grow the queue's storage: each
// completion resubmits, so the queue stays non-empty for 100k tasks while
// its backlog swings between 64 and ~164.
func TestCPUQueueStaysBoundedUnderSustainedBacklog(t *testing.T) {
	k, c := testCluster(t)
	cpu := c.Node(0).CPU
	const total = 100_000
	submitted, completed, peak := 0, 0, 0
	var task func()
	submit := func() {
		submitted++
		cpu.Submit(time.Microsecond, task)
		if q := cpu.QueueLen(); q > peak {
			peak = q
		}
	}
	task = func() {
		completed++
		if cpu.QueueLen() == 0 && submitted < total {
			t.Fatalf("backlog drained after %d tasks", completed)
		}
		// Grow the backlog for 100 completions, then shrink it for 100.
		n := 1
		if completed%200 < 100 {
			n = 2
		} else if cpu.QueueLen() > 64 {
			n = 0
		}
		for i := 0; i < n && submitted < total; i++ {
			submit()
		}
	}
	for i := 0; i < 64; i++ {
		submit()
	}
	k.RunAll()
	if completed != total {
		t.Fatalf("completed %d tasks, want %d", completed, total)
	}
	if got := cap(cpu.queue); got > 4*peak {
		t.Fatalf("queue storage grew to %d slots for a peak backlog of %d", got, peak)
	}
	if cpu.BusyTime() != total*time.Microsecond {
		t.Fatalf("busy = %v, want %v", cpu.BusyTime(), total*time.Microsecond)
	}
}

// Dequeued slots are zeroed, so a completed task's callback is not kept
// reachable by the queue's storage.
func TestCPUReleasesDequeuedTasks(t *testing.T) {
	k, c := testCluster(t)
	cpu := c.Node(0).CPU
	for i := 0; i < 8; i++ {
		cpu.Submit(time.Millisecond, func() {})
	}
	k.Run(3500 * time.Microsecond) // three done, the fourth in flight
	for i, task := range cpu.queue[:cpu.head] {
		if task.fn != nil {
			t.Fatalf("dequeued slot %d still holds its callback", i)
		}
	}
}

// FIFO order, QueueLen and BusyTime hold across compactions of the queue
// and across freezes that suspend a task midway. Each completion submits
// one more task, so a backlog of 50 slides to the front of the queue's
// storage again and again.
func TestCPUOrderAndAccountingAcrossCompactionAndFreeze(t *testing.T) {
	k, c := testCluster(t)
	n := c.Node(0)
	cpu := n.CPU
	const tasks = 5000
	var order []int
	submitted := 0
	var want time.Duration
	queued := func() int {
		// Submitted, but neither finished nor executing.
		q := submitted - len(order)
		if cpu.running {
			q--
		}
		return q
	}
	var submit func()
	submit = func() {
		i := submitted
		cost := time.Duration(1+i%7) * time.Millisecond
		want += cost
		submitted++
		cpu.Submit(cost, func() {
			order = append(order, i)
			if got := cpu.QueueLen(); got != queued() {
				t.Fatalf("QueueLen = %d, want %d", got, queued())
			}
			if submitted < tasks {
				submit()
			}
		})
	}
	for i := 0; i < 50; i++ {
		submit()
	}
	// Every freeze lands while work remains (the costs sum to ~20s).
	frozen := time.Duration(0)
	for at := 7 * time.Millisecond; at < 20*time.Second; at += 997 * time.Millisecond {
		frozen += 50 * time.Millisecond
		k.At(at, func() {
			n.Freeze()
			if got := cpu.QueueLen(); got != queued() {
				t.Fatalf("QueueLen after freeze = %d, want %d", got, queued())
			}
		})
		k.At(at+50*time.Millisecond, n.Unfreeze)
	}
	k.RunAll()
	if len(order) != tasks {
		t.Fatalf("completed %d tasks, want %d", len(order), tasks)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d was task %d: FIFO order broken", i, v)
		}
	}
	if cpu.BusyTime() != want {
		t.Fatalf("busy = %v, want the sum of costs %v", cpu.BusyTime(), want)
	}
	if k.Now() != want+frozen {
		t.Fatalf("finished at %v, want the costs plus %v frozen, %v", k.Now(), frozen, want+frozen)
	}
}

func TestCPUTaskDoesNotAllocate(t *testing.T) {
	k, c := testCluster(t)
	cpu := c.Node(0).CPU
	n := 0
	fn := func() { n++ }
	cpu.Submit(time.Microsecond, fn)
	k.RunAll() // warm the queue and the kernel arena
	allocs := testing.AllocsPerRun(100, func() {
		cpu.Submit(time.Microsecond, fn)
		k.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("a CPU task allocates %.1f times", allocs)
	}
	if n < 101 {
		t.Fatalf("tasks run = %d, want at least 101", n)
	}
}
