package cluster

import (
	"time"

	"vivo/internal/sim"
)

// CPU models a node's single processor as a FIFO work queue: tasks are
// submitted with a cost, execute one at a time, and invoke a completion
// callback. This is the level at which the PRESS server's main coordinating
// loop is simulated — per-request parsing, cache lookups and per-message
// protocol overheads are all CPU tasks whose costs differ by PRESS version.
//
// Two ways of stopping exist because the paper needs both:
//
//   - Block/Unblock models the server's main thread blocking on a full
//     communication queue (the TCP stall cascade): the current task
//     finishes, then the queue stops draining.
//   - freeze/unfreeze (driven by Node.Freeze) models a node hang: even the
//     in-flight task stops mid-execution and resumes later.
type CPU struct {
	k       *sim.Kernel
	queue   []cpuTask
	head    int
	running bool
	blocked int // block depth; >0 means the queue is not draining
	frozen  bool

	// in-flight task bookkeeping, needed to suspend mid-task on freeze
	done      sim.Event
	current   cpuTask
	remaining time.Duration

	busy time.Duration // accumulated execution time, for utilization
}

type cpuTask struct {
	cost time.Duration
	fn   func()
}

func newCPU(k *sim.Kernel) *CPU {
	return &CPU{k: k}
}

// Submit enqueues a task costing cost CPU time; fn runs at completion.
// fn may be nil for pure-delay work.
func (c *CPU) Submit(cost time.Duration, fn func()) {
	if cost < 0 {
		panic("cluster: negative CPU cost")
	}
	c.queue = append(c.queue, cpuTask{cost: cost, fn: fn})
	c.kick()
}

// Block pauses dequeuing after the current task completes. Blocks nest:
// every Block needs a matching Unblock.
func (c *CPU) Block() { c.blocked++ }

// Unblock releases one Block level and resumes the queue when the depth
// reaches zero.
func (c *CPU) Unblock() {
	if c.blocked == 0 {
		panic("cluster: Unblock without Block")
	}
	c.blocked--
	c.kick()
}

// Blocked reports whether the queue is currently prevented from draining.
func (c *CPU) Blocked() bool { return c.blocked > 0 }

// QueueLen returns the number of tasks waiting (not counting the one
// executing).
func (c *CPU) QueueLen() int { return len(c.queue) - c.head }

// BusyTime returns the total CPU time consumed by completed work.
func (c *CPU) BusyTime() time.Duration { return c.busy }

func (c *CPU) kick() {
	if c.running || c.frozen || c.blocked > 0 {
		return
	}
	if c.head >= len(c.queue) {
		// Reset backing storage so it doesn't grow without bound.
		c.queue = c.queue[:0]
		c.head = 0
		return
	}
	t := c.queue[c.head]
	c.head++
	c.running = true
	c.current = t
	c.remaining = t.cost
	c.schedule()
}

func (c *CPU) schedule() {
	started := c.k.Now()
	c.done = c.k.After(c.remaining, func() {
		c.busy += c.k.Now() - started
		c.running = false
		fn := c.current.fn
		c.current = cpuTask{}
		if fn != nil {
			fn()
		}
		c.kick()
	})
}

func (c *CPU) freeze() {
	c.frozen = true
	if c.running && c.done.Pending() {
		elapsed := c.done.When() - c.k.Now()
		// elapsed is what remains; charge what already ran.
		ran := c.remaining - elapsed
		if ran > 0 {
			c.busy += ran
		}
		c.remaining = elapsed
		c.done.Cancel()
	}
}

func (c *CPU) unfreeze() {
	c.frozen = false
	if c.running {
		c.schedule()
		return
	}
	c.kick()
}

// reset discards all queued and in-flight work (node crash).
func (c *CPU) reset() {
	c.done.Cancel()
	c.queue = nil
	c.head = 0
	c.running = false
	c.blocked = 0
	c.frozen = false
	c.current = cpuTask{}
}
