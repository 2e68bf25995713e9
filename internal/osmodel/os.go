// Package osmodel models the per-node operating system state that the
// paper's resource-exhaustion and application faults act on: kernel memory
// for communication buffers (skbufs), the pinnable-physical-page budget
// used by VIA memory registration, and the process table with crash and
// SIGSTOP/SIGCONT semantics.
//
// The two memory faults reproduce §4.2 of the paper:
//
//   - the skbuf-allocation fault makes kernel buffer allocation fail for a
//     period, which stalls TCP traffic (VIA is immune because it
//     pre-allocates at connection setup);
//   - the pin fault lowers the threshold above which memory-lock requests
//     fail, which only affects versions that pin dynamically (VIA-PRESS-5's
//     zero-copy file cache).
package osmodel

import (
	"errors"
	"fmt"

	"vivo/internal/cluster"
	"vivo/internal/sim"
)

// ErrNoPinnableMemory is returned by Pin when the request would exceed the
// current pin threshold, mirroring the cLAN driver returning an error
// status on a memory-lock request.
var ErrNoPinnableMemory = errors.New("osmodel: out of pinnable physical memory")

// OS is the operating-system state of one node.
type OS struct {
	k    *sim.Kernel
	node *cluster.Node

	// skbufFault, while true, makes AllocSKBuf fail: the kernel cannot
	// allocate communication buffers.
	skbufFault bool

	// Pinnable memory accounting, in bytes. pinLimit is the kernel's
	// hard cap (Linux 2.2 limited pinning to half of physical memory);
	// pinThreshold is the currently effective limit, which the fault
	// injector lowers to simulate pinnable-memory exhaustion.
	pinLimit     int64
	pinThreshold int64
	pinned       int64

	nextPID int
	procs   map[int]*Process
}

// New attaches an OS model to a node. pinLimit is the maximum number of
// bytes that may be pinned (the fault-free threshold). The OS registers
// crash/boot hooks on the node: a crash loses all kernel state and kills
// every process; a boot restores a clean kernel.
func New(k *sim.Kernel, node *cluster.Node, pinLimit int64) *OS {
	o := &OS{
		k:            k,
		node:         node,
		pinLimit:     pinLimit,
		pinThreshold: pinLimit,
		procs:        make(map[int]*Process),
	}
	node.OnCrash(func() {
		for _, p := range o.snapshotProcs() {
			p.exit(false)
		}
		o.pinned = 0
		o.skbufFault = false
		o.pinThreshold = o.pinLimit
	})
	return o
}

// Node returns the node this OS runs on.
func (o *OS) Node() *cluster.Node { return o.node }

// AllocSKBuf attempts to allocate a kernel communication buffer. It fails
// while the kernel-memory fault is active (or while the host is down).
func (o *OS) AllocSKBuf() bool {
	return o.node.Up && !o.skbufFault
}

// SetSKBufFault turns the kernel-memory-allocation fault on or off.
func (o *OS) SetSKBufFault(active bool) { o.skbufFault = active }

// SKBufFault reports whether the kernel-memory fault is active.
func (o *OS) SKBufFault() bool { return o.skbufFault }

// Pin locks n bytes of physical memory. It fails if the request would push
// total pinned memory above the effective threshold.
func (o *OS) Pin(n int64) error {
	if n < 0 {
		panic("osmodel: negative pin size")
	}
	if o.pinned+n > o.pinThreshold {
		return fmt.Errorf("%w: pinned %d + request %d > threshold %d",
			ErrNoPinnableMemory, o.pinned, n, o.pinThreshold)
	}
	o.pinned += n
	return nil
}

// Unpin releases n bytes of pinned memory.
func (o *OS) Unpin(n int64) {
	if n < 0 || n > o.pinned {
		panic(fmt.Sprintf("osmodel: unpin %d with %d pinned", n, o.pinned))
	}
	o.pinned -= n
}

// Pinned returns the bytes currently pinned.
func (o *OS) Pinned() int64 { return o.pinned }

// PinThreshold returns the currently effective pin limit.
func (o *OS) PinThreshold() int64 { return o.pinThreshold }

// PinLimit returns the hard cap the threshold is restored to on repair; a
// threshold below it means the pinning fault is currently active.
func (o *OS) PinLimit() int64 { return o.pinLimit }

// SetPinThreshold overrides the effective pin limit; the fault injector
// lowers it to simulate exhaustion and restores it on repair. Lowering the
// threshold below the amount already pinned does not unpin anything — it
// only makes further requests fail, exactly like the modified cLAN driver.
func (o *OS) SetPinThreshold(n int64) { o.pinThreshold = n }

// RestorePinThreshold resets the effective limit to the hard cap.
func (o *OS) RestorePinThreshold() { o.pinThreshold = o.pinLimit }

func (o *OS) snapshotProcs() []*Process {
	out := make([]*Process, 0, len(o.procs))
	for _, p := range o.procs {
		out = append(out, p)
	}
	// Deterministic order: by PID.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].PID > out[j].PID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Spawn creates a running process. The caller wires exit/stop behaviour via
// the returned handle.
func (o *OS) Spawn(name string) *Process {
	o.nextPID++
	p := &Process{PID: o.nextPID, Name: name, os: o, alive: true}
	o.procs[p.PID] = p
	return p
}

// Processes returns the live process count (debug/tests).
func (o *OS) Processes() int { return len(o.procs) }

// Process is one user-level process (the PRESS server, in this study).
type Process struct {
	PID  int
	Name string
	os   *OS

	alive   bool
	stopped bool

	onExit []func(killed bool)
	onStop []func()
	onCont []func()
}

// Alive reports whether the process exists.
func (p *Process) Alive() bool { return p.alive }

// Stopped reports whether the process is SIGSTOPped.
func (p *Process) Stopped() bool { return p.stopped }

// OnExit registers a callback run when the process dies. killed is true
// for an explicit kill (application crash fault or self-termination) and
// false when the whole node went down — peers can only observe the former
// via RST/connection breaks while the host survives.
func (p *Process) OnExit(fn func(killed bool)) { p.onExit = append(p.onExit, fn) }

// OnStop registers a callback run on SIGSTOP.
func (p *Process) OnStop(fn func()) { p.onStop = append(p.onStop, fn) }

// OnCont registers a callback run on SIGCONT.
func (p *Process) OnCont(fn func()) { p.onCont = append(p.onCont, fn) }

// Kill terminates the process (application crash). Idempotent.
func (p *Process) Kill() {
	p.exit(true)
}

// Exit is called by the application itself when it fail-fasts on an error.
func (p *Process) Exit() {
	p.exit(true)
}

func (p *Process) exit(killed bool) {
	if !p.alive {
		return
	}
	switch {
	case p.stopped && p.os.node.Up:
		p.Cont() // release any CPU block before dying
	case p.stopped:
		// Node crash: Node.Crash already discarded the CPU block, and
		// a process on a dead node resumes nothing.
		p.stopped = false
	}
	p.alive = false
	delete(p.os.procs, p.PID)
	for _, fn := range p.onExit {
		fn(killed)
	}
}

// Stop delivers SIGSTOP: the application hang fault. The node CPU queue is
// blocked, freezing all application work while kernel activity (packet
// reception into socket buffers, heartbeat *non*-sending...) continues.
func (p *Process) Stop() {
	if !p.alive || p.stopped {
		return
	}
	p.stopped = true
	p.os.node.CPU.Block()
	for _, fn := range p.onStop {
		fn()
	}
}

// Cont delivers SIGCONT, resuming a stopped process.
func (p *Process) Cont() {
	if !p.alive || !p.stopped {
		return
	}
	p.stopped = false
	p.os.node.CPU.Unblock()
	for _, fn := range p.onCont {
		fn()
	}
}
