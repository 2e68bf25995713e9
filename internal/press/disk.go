package press

import (
	"time"

	"vivo/internal/sim"
)

// Disk models a node's disk subsystem as a bank of identical servers with
// fixed per-file service time (the testbed had two 10k-rpm SCSI disks per
// node). Reads queue FIFO across the bank.
type Disk struct {
	k       *sim.Kernel
	service time.Duration
	free    []sim.Time // per-spindle next-free time
	queued  int

	reads []*diskRead // free list of completion records
}

// diskRead is one read in progress. Records are recycled through
// Disk.reads, and each one's completion callback is bound when it is
// first made, so a read allocates nothing.
type diskRead struct {
	d    *Disk
	fn   func()
	done func() // r.complete, bound once
}

// NewDisk builds a bank of n spindles with the given per-read service time.
func NewDisk(k *sim.Kernel, n int, service time.Duration) *Disk {
	if n <= 0 || service <= 0 {
		panic("press: bad disk config")
	}
	return &Disk{k: k, service: service, free: make([]sim.Time, n)}
}

// Read schedules one file read; fn runs when it completes.
func (d *Disk) Read(fn func()) {
	// Pick the spindle that frees earliest.
	best := 0
	for i, f := range d.free {
		if f < d.free[best] {
			best = i
		}
	}
	start := d.k.Now()
	if d.free[best] > start {
		start = d.free[best]
	}
	done := start + d.service
	d.free[best] = done
	d.queued++
	var r *diskRead
	if n := len(d.reads); n > 0 {
		r = d.reads[n-1]
		d.reads[n-1] = nil
		d.reads = d.reads[:n-1]
	} else {
		r = &diskRead{d: d}
		r.done = r.complete
	}
	r.fn = fn
	d.k.At(done, r.done)
}

func (r *diskRead) complete() {
	d, fn := r.d, r.fn
	r.fn = nil
	d.reads = append(d.reads, r)
	d.queued--
	fn()
}

// Queued returns the number of reads in progress or waiting.
func (d *Disk) Queued() int { return d.queued }

// Reset discards spindle state (node crash); queued completions are
// abandoned by their owning server's generation checks.
func (d *Disk) Reset() {
	for i := range d.free {
		d.free[i] = 0
	}
}
