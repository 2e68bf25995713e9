package workload

import (
	"math/rand"
	"time"

	"vivo/internal/metrics"
	"vivo/internal/sim"
	"vivo/internal/trace"
)

// TraceConfig describes the synthetic document set.
type TraceConfig struct {
	// Files is the number of distinct documents in the working set.
	Files int
	// FileSize is the uniform document size in bytes.
	FileSize int
	// ZipfS is the Zipf skew parameter (>1 required by rand.Zipf; the
	// popular head of the distribution is what cooperative caching
	// exploits).
	ZipfS float64
	// ZipfV flattens the head of the distribution (rand.Zipf's v). Web
	// traces have hot documents but not a single document absorbing a
	// fifth of all traffic; the default (8 when zero) keeps the hottest
	// document at a few percent of requests.
	ZipfV float64
}

// DefaultTrace sizes the working set like the paper's Rutgers trace: larger
// than one node's 128 MiB cache but within the 4-node aggregate, with all
// files normalised to 8 KiB.
func DefaultTrace() TraceConfig {
	return TraceConfig{
		Files:    56 * 1024, // 448 MiB at 8 KiB per file
		FileSize: 8 << 10,
		ZipfS:    1.2,
	}
}

// Trace samples document requests with Zipf popularity. A permutation
// decorrelates document id from popularity rank so that popular files
// spread across the whole id space (and hence across caching nodes).
type Trace struct {
	cfg  TraceConfig
	zipf *rand.Zipf
	perm []int
}

// NewTrace builds a sampler on the given deterministic source.
func NewTrace(cfg TraceConfig, rng *rand.Rand) *Trace {
	if cfg.Files <= 0 || cfg.FileSize <= 0 {
		panic("workload: bad trace config")
	}
	if cfg.ZipfS <= 1 {
		panic("workload: ZipfS must be > 1")
	}
	v := cfg.ZipfV
	if v <= 0 {
		v = 8
	}
	return &Trace{
		cfg:  cfg,
		zipf: rand.NewZipf(rng, cfg.ZipfS, v, uint64(cfg.Files-1)),
		perm: rng.Perm(cfg.Files),
	}
}

// Config returns the trace parameters.
func (t *Trace) Config() TraceConfig { return t.cfg }

// Next returns the next requested file id.
func (t *Trace) Next() int {
	return t.perm[int(t.zipf.Uint64())]
}

// SubmitResult is the backend's synchronous answer to a client connection
// attempt.
type SubmitResult int

const (
	// Accepted: the kernel accepted the connection; the request will be
	// answered (or not) by the application.
	Accepted SubmitResult = iota
	// Refused: the host is up but nothing is listening (process dead).
	Refused
	// Unreachable: the host is down, frozen, or its accept backlog is
	// overrun; the client's SYN goes unanswered.
	Unreachable
)

// Request is one in-flight client request. The backend calls Complete when
// the full response has been sent.
type Request struct {
	// ID is the global request id (1-based issue order). The PRESS
	// forward path carries it intra-cluster so trace duration spans can
	// stitch a per-request flame across nodes.
	ID   uint64
	File int
	// Node is the initial node chosen by round-robin DNS.
	Node int

	clients   *Clients
	birth     sim.Time
	settled   bool
	succeeded bool
	timer     sim.Event
}

// Birth returns the virtual time the client issued the request — the
// start of its end-to-end latency measurement.
func (r *Request) Birth() sim.Time { return r.birth }

// Complete marks the request successfully served. Calls after the client
// timed out (or duplicate calls) are ignored — the client is gone.
func (r *Request) Complete() {
	if r.settled {
		return
	}
	r.settled = true
	r.succeeded = true
	r.timer.Cancel()
	r.clients.settle(r, metrics.Served)
}

// Fail marks the request failed with the given outcome (used by the
// backend for mid-flight failures it can observe, e.g. a died process).
func (r *Request) Fail(o metrics.Outcome) {
	if r.settled {
		return
	}
	r.settled = true
	r.timer.Cancel()
	r.clients.settle(r, o)
}

// Settled reports whether an outcome was recorded for this request.
func (r *Request) Settled() bool { return r.settled }

// Succeeded reports whether the request completed successfully.
func (r *Request) Succeeded() bool { return r.succeeded }

// Backend is the server side the clients talk to (implemented by the PRESS
// deployment).
type Backend interface {
	// Submit delivers one client request to the chosen node and reports
	// how the connection attempt went.
	Submit(r *Request) SubmitResult
}

// ClientConfig tunes the load generator.
type ClientConfig struct {
	// Rate is the aggregate request arrival rate (requests/second),
	// generated as a Poisson process.
	Rate float64
	// Nodes is the number of server nodes for round-robin selection.
	Nodes int
	// ConnectTimeout and RequestTimeout mirror the paper's client: 2 s
	// to establish, 6 s to finish after establishment.
	ConnectTimeout time.Duration
	RequestTimeout time.Duration
}

// DefaultClients returns the paper's client behaviour at the given
// aggregate rate.
func DefaultClients(rate float64, nodes int) ClientConfig {
	return ClientConfig{
		Rate:           rate,
		Nodes:          nodes,
		ConnectTimeout: 2 * time.Second,
		RequestTimeout: 6 * time.Second,
	}
}

// Clients drives Poisson arrivals into a backend and records outcomes.
type Clients struct {
	k       *sim.Kernel
	cfg     ClientConfig
	trace   Sampler
	backend Backend
	rec     *metrics.Recorder

	running bool
	rr      int

	// Request-conservation accounting: every issued request must
	// eventually record exactly one outcome. The chaos oracles compare
	// these counters against the recorder's totals after a drain window.
	issued  int64
	settled int64
}

// Issued returns the number of requests generated so far.
func (c *Clients) Issued() int64 { return c.issued }

// Unsettled returns the number of issued requests with no recorded
// outcome yet. After load stops and the timeout windows drain, a non-zero
// value means a request was admitted but never resolved — a lost request.
func (c *Clients) Unsettled() int64 { return c.issued - c.settled }

// settle records r's outcome, counts the settlement, and — when a latency
// recorder is attached — files the end-to-end latency and closes r's
// trace span. Latency recording draws no randomness and schedules
// nothing, so runs without a recorder are untouched.
func (c *Clients) settle(r *Request, o metrics.Outcome) {
	c.settled++
	c.rec.Record(o)
	if c.rec.Latency() == nil {
		return
	}
	now := c.k.Now()
	c.rec.RecordLatency(now-r.birth, o)
	if trc := c.k.Tracer(); trc.Enabled() {
		trc.Emit(trace.Event{
			TS: now, Cat: trace.Request, Name: trace.EvRequest,
			Node: r.Node, Peer: trace.NoNode,
			Ph: trace.PhEnd, ID: r.ID, Note: o.String(),
		})
	}
}

// NewClients builds the load generator (trace may be a synthetic Zipf
// Trace or a replayed LogTrace). It does not start it.
func NewClients(k *sim.Kernel, cfg ClientConfig, trace Sampler, backend Backend, rec *metrics.Recorder) *Clients {
	if cfg.Rate <= 0 || cfg.Nodes <= 0 {
		panic("workload: bad client config")
	}
	return &Clients{k: k, cfg: cfg, trace: trace, backend: backend, rec: rec}
}

// Start begins generating requests.
func (c *Clients) Start() {
	if c.running {
		return
	}
	c.running = true
	c.scheduleNext()
}

// Stop halts generation; in-flight requests still settle.
func (c *Clients) Stop() { c.running = false }

func (c *Clients) scheduleNext() {
	if !c.running {
		return
	}
	// Exponential inter-arrival time for a Poisson process.
	gap := time.Duration(c.k.Rand().ExpFloat64() / c.cfg.Rate * float64(time.Second))
	c.k.After(gap, func() {
		if !c.running {
			return
		}
		c.issue()
		c.scheduleNext()
	})
}

func (c *Clients) issue() {
	node := c.rr % c.cfg.Nodes
	c.rr++
	c.issued++
	r := &Request{ID: uint64(c.issued), File: c.trace.Next(), Node: node, clients: c, birth: c.k.Now()}
	if c.rec.Latency() != nil {
		if trc := c.k.Tracer(); trc.Enabled() {
			trc.Emit(trace.Event{
				TS: r.birth, Cat: trace.Request, Name: trace.EvRequest,
				Node: r.Node, Peer: trace.NoNode, Arg: int64(r.File),
				Ph: trace.PhBegin, ID: r.ID,
			})
		}
	}
	switch c.backend.Submit(r) {
	case Accepted:
		r.timer = c.k.After(c.cfg.RequestTimeout, func() {
			if !r.settled {
				r.settled = true
				c.settle(r, metrics.RequestTimeout)
			}
		})
	case Refused:
		r.settled = true
		c.settle(r, metrics.Refused)
	case Unreachable:
		r.settled = true
		c.k.After(c.cfg.ConnectTimeout, func() {
			c.settle(r, metrics.ConnectTimeout)
		})
	}
}
