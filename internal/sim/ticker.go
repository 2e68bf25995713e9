package sim

import "time"

// Ticker invokes a callback at a fixed period until stopped. It is the
// building block for heartbeats, pollers and periodic samplers in the
// simulation.
type Ticker struct {
	k      *Kernel
	period time.Duration
	fn     func()
	tick   func() // built once, so re-arming does not allocate
	ev     Event
	on     bool
}

// NewTicker returns a stopped ticker; call Start to arm it.
func NewTicker(k *Kernel, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.tick = func() {
		if !t.on {
			return
		}
		t.fn()
		if t.on { // fn may have stopped us
			t.schedule()
		}
	}
	return t
}

// Start arms the ticker; the first tick fires one period from now.
// Starting a running ticker is a no-op.
func (t *Ticker) Start() {
	if t.on {
		return
	}
	t.on = true
	t.schedule()
}

// Stop disarms the ticker. The callback will not fire again until Start.
func (t *Ticker) Stop() {
	t.on = false
	t.ev.Cancel()
}

// Running reports whether the ticker is armed.
func (t *Ticker) Running() bool { return t.on }

func (t *Ticker) schedule() { t.ev = t.k.After(t.period, t.tick) }
