package press

import (
	"fmt"

	"vivo/internal/cluster"
	"vivo/internal/metrics"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
	"vivo/internal/substrate"
	"vivo/internal/workload"
)

// Deployment wires a full PRESS installation together: the simulated
// hardware, per-node OS models, the communication substrate of the chosen
// version, the restart daemons, and the current server process on each
// node. It implements workload.Backend so clients can drive it.
type Deployment struct {
	K   *sim.Kernel
	Cfg Config

	HW    *cluster.Cluster
	OS    []*osmodel.OS
	Disks []*Disk

	transports []substrate.Transport

	servers []*Server

	// Events, if non-nil, receives timestamped lifecycle annotations
	// (detections, reconfigurations, restarts). The experiment harness
	// points this at the metrics recorder.
	Events func(label string)

	// DaemonEnabled mirrors Mendosus restarting PRESS processes
	// automatically; tests may disable it.
	DaemonEnabled bool
}

// NewDeployment builds the hardware and substrate for cfg. No server
// processes run until Start.
func NewDeployment(k *sim.Kernel, cfg Config) *Deployment {
	if cfg.Nodes < 1 || cfg.Nodes > 8 {
		panic("press: 1..8 nodes supported (directory bitmask)")
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = Costs(cfg.Version)
	}
	if cfg.Substrate == nil {
		cfg.Substrate = cfg.Version.Spec().Substrate
	}
	d := &Deployment{
		K:             k,
		Cfg:           cfg,
		HW:            cluster.New(k, cfg.Hardware),
		servers:       make([]*Server, cfg.Nodes),
		DaemonEnabled: true,
	}
	for i := 0; i < cfg.Nodes; i++ {
		node := d.HW.Node(i)
		os := osmodel.New(k, node, cfg.PinLimit)
		d.OS = append(d.OS, os)
		d.Disks = append(d.Disks, NewDisk(k, cfg.DiskSpindles, cfg.DiskService))
		d.transports = append(d.transports, cfg.Substrate.NewTransport(substrate.NodeEnv{
			K: k, HW: d.HW, Node: node, OS: os,
		}))
		d.installDaemon(i)
	}
	return d
}

func (d *Deployment) transportFor(id int) substrate.Transport {
	return d.transports[id]
}

// installDaemon sets up the per-node restart daemon: it respawns the PRESS
// process RestartDelay after an application crash (host still up) or after
// the node boots.
func (d *Deployment) installDaemon(i int) {
	node := d.HW.Node(i)
	node.OnBoot(func() {
		if d.DaemonEnabled {
			d.scheduleRespawn(i)
		}
	})
}

func (d *Deployment) scheduleRespawn(i int) {
	d.K.After(d.Cfg.RestartDelay, func() {
		if !d.DaemonEnabled || !d.HW.Node(i).Up {
			return
		}
		if s := d.servers[i]; s != nil && s.Alive() {
			return
		}
		d.spawn(i, false)
	})
}

func (d *Deployment) spawn(i int, bootstrap bool) *Server {
	proc := d.OS[i].Spawn("press")
	s := newServer(d, i, proc, bootstrap)
	d.servers[i] = s
	proc.OnExit(func(killed bool) {
		if killed && d.DaemonEnabled && d.HW.Node(i).Up {
			d.scheduleRespawn(i)
		}
	})
	if d.Events != nil {
		d.Events(fmt.Sprintf("n%d: press started (pid %d)", i, proc.PID))
	}
	return s
}

// Start launches the PRESS process on every node in coordinated bootstrap
// mode (cluster startup, the only time full reconfiguration happens per
// §3).
func (d *Deployment) Start() {
	for i := 0; i < d.Cfg.Nodes; i++ {
		d.spawn(i, true)
	}
}

// Server returns the current server process on node i, or nil if none.
func (d *Deployment) Server(i int) *Server { return d.servers[i] }

// NodeView is one node's externally observable state: hardware, process
// and membership, as an operator (or an invariant oracle) would see it.
// Deployment.Inventory assembles one per node.
type NodeView struct {
	Node      int
	Up        bool  // host powered and booted
	Frozen    bool  // host hung (no state lost)
	ProcAlive bool  // a PRESS process is running
	Joined    bool  // that process completed its (re)join protocol
	Members   []int // its sorted membership view (nil when no process)
	Inflight  int   // client requests it is serving
	Pending   int   // requests forwarded to peers and unanswered
}

// Inventory snapshots every node's observable state. The chaos oracles
// read it after a run settles: membership convergence means every alive,
// joined server's Members equals the set of nodes with alive servers.
func (d *Deployment) Inventory() []NodeView {
	out := make([]NodeView, d.Cfg.Nodes)
	for i := 0; i < d.Cfg.Nodes; i++ {
		node := d.HW.Node(i)
		v := NodeView{Node: i, Up: node.Up, Frozen: node.Frozen}
		if s := d.servers[i]; s != nil && s.Alive() {
			v.ProcAlive = true
			v.Joined = s.Joined()
			v.Members = s.Members()
			v.Inflight = s.Inflight()
			v.Pending = s.PendingForwards()
		}
		out[i] = v
	}
	return out
}

// Process returns the OS process of the current server on node i, or nil.
func (d *Deployment) Process(i int) *osmodel.Process {
	if s := d.servers[i]; s != nil && s.Alive() {
		return s.proc
	}
	return nil
}

// WarmStart prepopulates caches and directories as if the working set had
// been served once: file f lives in the cache of node f mod N and every
// directory knows it. This removes the long disk-bound warmup from
// experiments that only need steady state.
func (d *Deployment) WarmStart() {
	n := d.Cfg.Nodes
	for f := 0; f < d.Cfg.WorkingSetFiles; f++ {
		owner := f % n
		s := d.servers[owner]
		if s == nil {
			continue
		}
		evicted, ok := s.cache.Insert(f)
		for i := 0; i < n; i++ {
			sv := d.servers[i]
			if sv == nil {
				continue
			}
			if ok {
				sv.dir[f] |= 1 << uint(owner)
			}
			for _, ev := range evicted {
				sv.dirRemove(ev, owner)
			}
		}
	}
}

// Submit implements workload.Backend: the client-side connection attempt.
// Client traffic does not traverse the simulated intra-cluster fabric (the
// injector never disturbs it), so reachability depends only on host state.
func (d *Deployment) Submit(r *workload.Request) workload.SubmitResult {
	node := d.HW.Node(r.Node)
	if !node.Up || node.Frozen {
		return workload.Unreachable
	}
	s := d.servers[r.Node]
	if s == nil || !s.Alive() {
		return workload.Refused
	}
	if node.CPU.QueueLen() > d.Cfg.AcceptBacklog {
		// Accept backlog overrun: SYNs dropped.
		return workload.Unreachable
	}
	s.acceptRequest(r)
	return workload.Accepted
}

var _ workload.Backend = (*Deployment)(nil)

// Throughput helpers for tests and experiments.

// MeasureThroughput runs the deployment under a saturating load for dur
// (after warm caches) and returns the sustained served rate. It is the
// Table 1 measurement.
func MeasureThroughput(k *sim.Kernel, cfg Config, offered float64, warmup, dur sim.Time) float64 {
	rec := metrics.NewRecorder(k, binWidth)
	d := NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	tr := workload.NewTrace(workload.TraceConfig{
		Files:    cfg.WorkingSetFiles,
		FileSize: int(cfg.FileSize),
		ZipfS:    1.2,
	}, k.Rand())
	cl := workload.NewClients(k, workload.DefaultClients(offered, cfg.Nodes), tr, d, rec)
	cl.Start()
	k.Run(k.Now() + warmup + dur)
	cl.Stop()
	tl := rec.Timeline()
	return tl.MeanThroughput(warmup, warmup+dur)
}

const binWidth = 1_000_000_000 // 1 s in sim.Time (time.Duration) units
