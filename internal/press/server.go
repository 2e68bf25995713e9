package press

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/comm"
	"vivo/internal/metrics"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
	"vivo/internal/substrate"
	"vivo/internal/trace"
	"vivo/internal/workload"
)

// Intra-cluster message kinds.
const (
	msgForward = iota
	msgFileData
	msgCacheAdd
	msgCacheEvict
	msgHeartbeat
	msgNodeDown
	msgJoinReq
	msgJoinAccept
	msgNodeUp
	msgCacheSummary
)

// wire is the payload of every intra-cluster message. Load is piggybacked
// on all messages, as in PRESS.
type wire struct {
	From  int
	ReqID uint64
	// GID is the client request's global id (workload.Request.ID),
	// propagated on Forward/FileData so the service node's trace spans
	// join the same per-request flame as the initial node's.
	GID     uint64
	File    int
	Node    int   // subject of NodeDown / NodeUp / JoinReq
	Members []int // JoinAccept
	Files   []int // CacheSummary chunk
	Load    int
}

const smallMsgSize = 64

// pendingFwd tracks a client request forwarded to a service node.
type pendingFwd struct {
	req *workload.Request
	svc int
}

type outMsg struct {
	dst     int
	params  comm.SendParams
	retried bool // one reissue after a robust-layer descriptor rejection
}

// Server is one PRESS process. A new Server is created for every process
// incarnation; the restart daemon in Deployment spawns them.
//
// The server core here is version-independent: everything that differs
// between the Table-1 builds is composed from the VersionSpec at
// construction — the substrate transport (tr), the send-path/flow-control
// engine (engine, sendpath.go), the failure-detection policy (det,
// detect.go) and the rejoin protocol (join, membership.go). The request
// router/cache path lives in router.go.
type Server struct {
	d    *Deployment
	id   int
	node *cluster.Node
	os   *osmodel.OS
	proc *osmodel.Process
	tr   substrate.Transport
	cfg  *Config
	spec VersionSpec
	cost CostModel
	// readCost is the cache-hit service cost (CacheReadZeroCopy for the
	// zero-copy build, CacheRead otherwise).
	readCost time.Duration

	alive  bool
	joined bool

	members map[int]bool
	conns   map[int]substrate.PeerConn
	// joinPending holds accepted-or-dialed channels to nodes that are
	// not (yet) members: the raw material of the join protocol.
	joinPending map[int]substrate.PeerConn

	cache *Cache
	// dir maps file -> bitmask of caching nodes (cluster size <= 8).
	dir      map[int]uint8
	loads    map[int]int
	inflight int

	pending   map[uint64]pendingFwd
	nextReqID uint64

	// The composed policy layers (see type comment).
	engine sendEngine
	det    detector
	join   joinPolicy

	remerge *sim.Ticker
	sweep   *sim.Ticker

	joinTimer sim.Event

	// interpose, when set, mutates the parameters of intra-cluster send
	// calls — the bad-parameter fault injection point (§4.3).
	interpose func(*comm.SendParams)

	// deferred actions while the process is SIGSTOPped (helper-thread
	// work that resumes on SIGCONT).
	deferred []func()
}

// newServer constructs and starts a PRESS process on node id. bootstrap
// indicates coordinated cluster start (membership preset to all nodes);
// otherwise the server runs the rejoin protocol.
func newServer(d *Deployment, id int, proc *osmodel.Process, bootstrap bool) *Server {
	cfg := &d.Cfg
	spec := cfg.Version.Spec()
	s := &Server{
		d:           d,
		id:          id,
		node:        d.HW.Node(id),
		os:          d.OS[id],
		proc:        proc,
		tr:          d.transportFor(id),
		cfg:         cfg,
		spec:        spec,
		cost:        cfg.Costs,
		alive:       true,
		members:     map[int]bool{id: true},
		conns:       make(map[int]substrate.PeerConn),
		joinPending: make(map[int]substrate.PeerConn),
		dir:         make(map[int]uint8),
		loads:       make(map[int]int),
		pending:     make(map[uint64]pendingFwd),
	}
	s.readCost = s.cost.CacheRead
	if spec.ZeroCopy {
		s.readCost = s.cost.CacheReadZeroCopy
	}
	s.engine = newSendEngine(s, spec.FlowControl)
	s.det = newDetector(s, spec.Heartbeats)
	s.join = newJoinPolicy(spec.Join)
	var pinOS *osmodel.OS
	if spec.ZeroCopy {
		pinOS = s.os
	}
	s.cache = NewCache(cfg.CacheBytes, cfg.FileSize, pinOS)

	proc.OnExit(func(killed bool) { s.teardown() })
	proc.OnCont(func() { s.runDeferred() })

	s.tr.Listen(s.accept)
	if bootstrap {
		for i := 0; i < cfg.Nodes; i++ {
			if i != id {
				s.members[i] = true
			}
		}
		s.joined = true
		// Deterministic pairwise connect: dial higher ids, accept
		// lower ones.
		for j := id + 1; j < cfg.Nodes; j++ {
			s.dialPeer(j)
		}
	} else {
		s.startJoin()
	}
	s.det.start()
	// Periodically prune forwarded requests whose clients gave up, so
	// the in-flight count (piggybacked as load) reflects reality.
	s.sweep = sim.NewTicker(d.K, 5*time.Second, s.sweepPending)
	s.sweep.Start()
	if cfg.Remerge {
		s.remerge = sim.NewTicker(d.K, cfg.RemergeInterval, s.remergeTick)
		s.remerge.Start()
	}
	return s
}

func (s *Server) k() *sim.Kernel { return s.d.K }

func (s *Server) trc() *trace.Tracer { return s.d.K.Tracer() }

// emit records a trace event on this node at the current virtual time
// (cat is trace.Press for protocol events, trace.Request for the client
// request lifecycle). Call sites that build a note with fmt.Sprintf must
// guard with s.trc().Enabled() so the disabled path does no formatting
// work.
func (s *Server) emit(cat trace.Category, name string, peer int, arg int64, note string) {
	s.trc().Emit(trace.Event{
		TS: s.k().Now(), Cat: cat, Name: name,
		Node: s.id, Peer: peer, Arg: arg, Note: note,
	})
}

// emitReq traces a request-lifecycle instant (admit/serve/drop)
// carrying the request's global id, so hop decomposition can correlate
// the lifecycle back to one request. Instants do not serialize the id,
// so trace files are unchanged by the threading.
func (s *Server) emitReq(name string, id uint64, arg int64, note string) {
	s.trc().Emit(trace.Event{
		TS: s.k().Now(), Cat: trace.Request, Name: name,
		Node: s.id, Peer: trace.NoNode, Arg: arg, Note: note, ID: id,
	})
}

// emitSpan traces one side of an async request span (Ph = trace.PhBegin
// or PhEnd) correlated by the client request's global id.
func (s *Server) emitSpan(ph byte, name string, peer int, id uint64, arg int64) {
	if trc := s.trc(); trc.Enabled() && id != 0 {
		trc.Emit(trace.Event{
			TS: s.k().Now(), Cat: trace.Request, Name: name,
			Node: s.id, Peer: peer, Arg: arg, Ph: ph, ID: id,
		})
	}
}

// emitDepth traces a send-queue depth counter sample (name is
// trace.EvOutQ or trace.EvPeerQ; zero is a real sample — the queue
// drained).
func (s *Server) emitDepth(name string, depth int) {
	if trc := s.trc(); trc.Enabled() {
		trc.Emit(trace.Event{
			TS: s.k().Now(), Cat: trace.Press, Name: name,
			Node: s.id, Peer: trace.NoNode, Arg: int64(depth), Ph: trace.PhCounter,
		})
	}
}

// emitMembership traces a membership-view change. trigger must be a
// static string (the subject node goes in peer); the formatted view is
// only built when tracing is enabled.
func (s *Server) emitMembership(trigger string, peer int) {
	if trc := s.trc(); trc.Enabled() {
		trc.Emit(trace.Event{
			TS: s.k().Now(), Cat: trace.Press, Name: trace.EvMembership,
			Node: s.id, Peer: peer, Arg: int64(len(s.members)),
			Note: fmt.Sprintf("%s; view %v", trigger, s.Members()),
		})
	}
}

func (s *Server) mark(label string) {
	if s.d.Events != nil {
		s.d.Events(fmt.Sprintf("n%d: %s", s.id, label))
	}
}

// Alive reports whether this server incarnation is running.
func (s *Server) Alive() bool { return s.alive }

// sortedKeys returns a map's keys in ascending order. Every map loop
// whose body has simulation side effects (closing channels, failing
// requests, re-dispatching work) must iterate in key order: Go randomizes
// map iteration, and a side-effect order that varies between runs makes
// identically-seeded experiments diverge.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Members returns the sorted current membership view.
func (s *Server) Members() []int {
	out := make([]int, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// CacheLen returns the number of files currently cached.
func (s *Server) CacheLen() int { return s.cache.Len() }

// Inflight returns the number of client requests being served.
func (s *Server) Inflight() int { return s.inflight }

// Joined reports whether this incarnation completed its (re)join
// protocol — bootstrap servers are born joined; restarted ones join (or
// give up and run standalone) within JoinTimeout.
func (s *Server) Joined() bool { return s.joined }

// PendingForwards returns the number of client requests this node has
// forwarded to a service node and not yet answered.
func (s *Server) PendingForwards() int { return len(s.pending) }

// SetInterposer installs (or clears) the bad-parameter injection hook.
func (s *Server) SetInterposer(fn func(*comm.SendParams)) { s.interpose = fn }

// Interposed reports whether a bad-parameter interposer is currently
// armed; the injector treats a second interposition on the same node as a
// no-op while one is pending.
func (s *Server) Interposed() bool { return s.interpose != nil }

// FailFast terminates the process the way PRESS reacts to unexpected
// communication errors.
func (s *Server) FailFast(reason error) { s.failFast(reason) }

// ---- lifecycle ----

func (s *Server) teardown() {
	if !s.alive {
		return
	}
	s.alive = false
	s.stopTickers()
	s.joinTimer.Cancel()
	s.tr.Unlisten()
	for _, j := range sortedKeys(s.conns) {
		s.conns[j].Close()
	}
	for _, j := range sortedKeys(s.joinPending) {
		s.joinPending[j].Close()
	}
	s.conns = map[int]substrate.PeerConn{}
	s.joinPending = map[int]substrate.PeerConn{}
	for _, id := range sortedKeys(s.pending) {
		p := s.pending[id]
		delete(s.pending, id)
		s.failReq(p.req, metrics.Refused, "process down")
	}
	s.engine.reset()
	s.cache.DropAll()
	s.mark("process down")
}

func (s *Server) stopTickers() {
	if s.sweep != nil {
		s.sweep.Stop()
	}
	s.det.stop()
	if s.remerge != nil {
		s.remerge.Stop()
	}
}

func (s *Server) failFast(reason error) {
	if !s.alive {
		return
	}
	s.mark(fmt.Sprintf("fail-fast: %v", reason))
	s.proc.Exit() // OnExit runs teardown and the daemon schedules restart
}

func (s *Server) runDeferred() {
	work := s.deferred
	s.deferred = nil
	for _, fn := range work {
		if !s.alive {
			return
		}
		fn()
	}
}

// deferIfStopped queues helper-thread work while the process is stopped.
// It returns true if the work was deferred.
func (s *Server) deferIfStopped(fn func()) bool {
	if s.proc.Stopped() {
		s.deferred = append(s.deferred, fn)
		return true
	}
	return false
}

// ---- connection management ----

func (s *Server) dialPeer(j int) {
	s.tr.Dial(j, func(pc substrate.PeerConn, err error) {
		if !s.alive {
			if pc != nil {
				pc.Close()
			}
			return
		}
		if err != nil {
			// Bootstrap dial failure: the peer is down at startup;
			// treat as an initial reconfiguration.
			s.reconfigure(j, false)
			return
		}
		pc.Bind(s.callbacks())
		if s.members[j] && s.conns[j] == nil {
			s.conns[j] = pc
			return
		}
		s.joinPending[j] = pc
	})
}

func (s *Server) accept(pc substrate.PeerConn) {
	if !s.alive {
		pc.Close()
		return
	}
	pc.Bind(s.callbacks())
	r := pc.Remote()
	if s.members[r] && s.conns[r] == nil {
		// Expected bootstrap connection from a lower-id member.
		s.conns[r] = pc
		return
	}
	// Anything else is join-protocol material.
	s.join.acceptStranger(s, r, pc)
}

// admit adds a rejoining node to the membership and sends it our cache
// summary.
func (s *Server) admit(r int, pc substrate.PeerConn) {
	s.members[r] = true
	s.conns[r] = pc
	delete(s.joinPending, r)
	s.det.resetGrace()
	// Emit the membership change before the cache summary goes out: the
	// re-admission must precede sends to the re-admitted peer in the
	// event stream (the chaos no-send-after-evict oracle folds over
	// emission order).
	s.emitMembership("admitted", r)
	s.sendCacheSummary(r)
	s.mark(fmt.Sprintf("admitted n%d", r))
}

func (s *Server) callbacks() substrate.Callbacks {
	return substrate.Callbacks{
		OnMessage:  s.onMessage,
		OnWritable: s.onWritable,
		OnBreak:    s.onBreak,
		OnFatal:    s.onFatal,
	}
}

func (s *Server) onWritable(pc substrate.PeerConn) {
	if !s.alive {
		return
	}
	if s.deferIfStopped(func() { s.onWritable(pc) }) {
		return
	}
	s.engine.onWritable(pc.Remote())
}

// ---- sending ----

// send charges the CPU cost and then posts the message through the
// engine's (possibly blocking) send path.
func (s *Server) send(dst, kind int, w wire, size int, cost time.Duration) {
	s.node.CPU.Submit(cost, func() {
		if !s.alive {
			return
		}
		s.engine.transmitOrQueue(dst, s.params(kind, w, size))
	})
}

func (s *Server) params(kind int, w wire, size int) comm.SendParams {
	w.From = s.id
	w.Load = s.inflight
	return comm.SendParams{Msg: comm.Message{Kind: kind, Size: size, Payload: w}}
}

func (s *Server) broadcast(kind int, w wire, size int, cost time.Duration) {
	for _, m := range s.Members() {
		if m != s.id {
			s.send(m, kind, w, size, cost)
		}
	}
}

// ---- receiving ----

func (s *Server) onMessage(pc substrate.PeerConn, d substrate.Delivered) {
	if !s.alive {
		d.Release()
		return
	}
	// The receive helper thread drains the channel: while the process is
	// SIGSTOPped nothing drains, so flow-control windows/credits stay
	// closed and peers eventually stall — the app-hang propagation path.
	if s.deferIfStopped(func() { s.onMessage(pc, d) }) {
		return
	}
	w, ok := d.Msg.Payload.(wire)
	if !ok {
		d.Release()
		return
	}
	// Drained promptly by the helper thread, independent of the main
	// loop; processing backlog lives in the application, not the kernel.
	d.Release()
	s.loads[w.From] = w.Load
	switch d.Msg.Kind {
	case msgHeartbeat:
		// Handled by the heartbeat thread directly: heartbeat receipt
		// must not depend on the (possibly blocked) main loop.
		s.det.noteHeartbeat(w.From)
	case msgNodeDown:
		// Membership control is also main-loop independent.
		s.reconfigure(w.Node, false)
	default:
		cost := s.cost.RecvSmall
		if d.Msg.Kind == msgFileData || d.Msg.Kind == msgCacheSummary {
			cost = s.cost.RecvData
		}
		s.node.CPU.Submit(cost, func() {
			if !s.alive {
				return
			}
			if d.Corrupt {
				// Garbage payload (off-by-N pointer upstream):
				// the parser trips over it and the process
				// fail-fasts.
				s.failFast(comm.ErrStreamCorrupt)
				return
			}
			s.handleMsg(pc, d.Msg.Kind, w)
		})
	}
}

func (s *Server) handleMsg(pc substrate.PeerConn, kind int, w wire) {
	switch kind {
	case msgForward:
		s.handleForward(w)
	case msgFileData:
		if p, ok := s.pending[w.ReqID]; ok {
			delete(s.pending, w.ReqID)
			s.finish(p.req)
		}
	case msgCacheAdd:
		s.dir[w.File] |= 1 << uint(w.From)
	case msgCacheEvict:
		s.dirRemove(w.File, w.From)
	case msgJoinReq:
		s.handleJoinReq(w)
	case msgJoinAccept:
		s.handleJoinAccept(w)
	case msgNodeUp:
		s.handleNodeUp(w)
	case msgCacheSummary:
		for _, f := range w.Files {
			s.dir[f] |= 1 << uint(w.From)
		}
	}
}

// DebugState is a diagnostic snapshot used during development.
func (s *Server) DebugState() string {
	return fmt.Sprintf("n%d members=%v inflight=%d pending=%d %s",
		s.id, s.Members(), s.inflight, len(s.pending), s.engine.queueDebug())
}

// DirStats summarises directory attribution per node (diagnostics).
func (s *Server) DirStats() string {
	var counts [9]int
	for _, m := range s.dir {
		for n := 0; n < 8; n++ {
			if m&(1<<uint(n)) != 0 {
				counts[n]++
			}
		}
	}
	return fmt.Sprintf("dir attribution: n0=%d n1=%d n2=%d n3=%d entries=%d",
		counts[0], counts[1], counts[2], counts[3], len(s.dir))
}
