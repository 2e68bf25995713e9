package press

import (
	"math/rand"
	"testing"
	"time"

	"vivo/internal/comm"
	"vivo/internal/metrics"
	"vivo/internal/sim"
	"vivo/internal/workload"
)

// testConfig is a scaled-down deployment (smaller working set and caches,
// moderate load) that keeps the behavioural properties — stall cascades,
// detection latencies, splinters — while running fast.
func testConfig(v Version) Config {
	cfg := DefaultConfig(v)
	cfg.WorkingSetFiles = 9500 // slightly exceeds the aggregate cache
	cfg.CacheBytes = 16 << 20  // 2048 files per node
	return cfg
}

const testRate = 1200.0

// fixture is a running deployment with clients.
type fixture struct {
	t   *testing.T
	k   *sim.Kernel
	cfg Config
	d   *Deployment
	rec *metrics.Recorder
	cl  *workload.Clients
}

func newFixture(t *testing.T, v Version, seed int64) *fixture {
	return newFixtureRate(t, v, seed, testRate)
}

func newFixtureRate(t *testing.T, v Version, seed int64, rate float64) *fixture {
	t.Helper()
	k := sim.New(seed)
	cfg := testConfig(v)
	rec := metrics.NewRecorder(k, time.Second)
	d := NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	tr := workload.NewTrace(workload.TraceConfig{
		Files:    cfg.WorkingSetFiles,
		FileSize: int(cfg.FileSize),
		ZipfS:    1.2,
	}, rand.New(rand.NewSource(seed+1)))
	cl := workload.NewClients(k, workload.DefaultClients(rate, cfg.Nodes), tr, d, rec)
	cl.Start()
	return &fixture{t: t, k: k, cfg: cfg, d: d, rec: rec, cl: cl}
}

// run advances virtual time to the absolute instant at.
func (f *fixture) run(at sim.Time) {
	f.k.Run(at)
}

// throughput returns mean served rate over [from, to).
func (f *fixture) throughput(from, to sim.Time) float64 {
	return f.rec.Timeline().MeanThroughput(from, to)
}

func (f *fixture) wantMembers(node int, want ...int) {
	f.t.Helper()
	s := f.d.Server(node)
	if s == nil {
		f.t.Fatalf("node %d has no server", node)
	}
	got := s.Members()
	if len(got) != len(want) {
		f.t.Fatalf("node %d members = %v, want %v (t=%v)", node, got, want, f.k.Now())
	}
	for i := range want {
		if got[i] != want[i] {
			f.t.Fatalf("node %d members = %v, want %v (t=%v)", node, got, want, f.k.Now())
		}
	}
}

func sec(n int) sim.Time { return time.Duration(n) * time.Second }

// oneShot installs a self-clearing interposer, corrupting exactly the next
// send call (what the real injector does).
func oneShot(s *Server, mutate func(*comm.SendParams)) {
	s.SetInterposer(func(p *comm.SendParams) {
		mutate(p)
		s.SetInterposer(nil)
	})
}

// The deployment sizes its fabric: Config.Nodes is the only node count,
// so every size the directory bitmask allows gets exactly that many
// fabric nodes, OS models and disks, and every node boots a server.
func TestDeploymentFabricMatchesNodes(t *testing.T) {
	for n := 1; n <= 8; n++ {
		cfg := DefaultConfig(VIAPress5)
		cfg.Nodes = n
		d := NewDeployment(sim.New(1), cfg)
		if got := len(d.HW.Nodes); got != n {
			t.Fatalf("Nodes=%d: fabric has %d nodes", n, got)
		}
		if len(d.OS) != n || len(d.Disks) != n {
			t.Fatalf("Nodes=%d: %d OS models, %d disks", n, len(d.OS), len(d.Disks))
		}
		d.Start()
		if d.Server(n-1) == nil {
			t.Fatalf("Nodes=%d: no server on the last node", n)
		}
	}
}

func TestBootstrapServesAtOfferedRate(t *testing.T) {
	for _, v := range Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v, 7)
			f.run(sec(30))
			got := f.throughput(sec(10), sec(30))
			if got < testRate*0.97 {
				t.Fatalf("steady throughput %.0f, want close to offered %.0f", got, testRate)
			}
			for i := 0; i < 4; i++ {
				f.wantMembers(i, 0, 1, 2, 3)
			}
			if av := f.rec.Availability(); av < 0.99 {
				t.Fatalf("availability %.4f under no faults", av)
			}
		})
	}
}

// §5.2: TCP-PRESS stalls for the whole transient link fault (no connection
// break — TCP's timeouts are far longer), then recovers fully.
func TestLinkFaultTCPPressStallsThenRecovers(t *testing.T) {
	f := newFixture(t, TCPPress, 11)
	f.run(sec(30))
	f.d.HW.Node(3).Link.Up = false
	f.k.After(sec(60), func() { f.d.HW.Node(3).Link.Up = true }) // repair at t=90s
	f.run(sec(240))

	during := f.throughput(sec(40), sec(85))
	if during > testRate*0.1 {
		t.Fatalf("throughput during link fault = %.0f, want near zero (stall cascade)", during)
	}
	after := f.throughput(sec(180), sec(240))
	if after < testRate*0.9 {
		t.Fatalf("throughput after recovery = %.0f, want back to ~%.0f", after, testRate)
	}
	// No reconfiguration happened: the fault was shorter than TCP's
	// abort timeout, so membership never changed.
	for i := 0; i < 4; i++ {
		f.wantMembers(i, 0, 1, 2, 3)
	}
}

// §5.2: TCP-PRESS-HB detects via missed heartbeats in ~15 s and splinters
// into 3+1; the partitions do NOT merge after the link returns.
func TestLinkFaultTCPHBSplintersNoRemerge(t *testing.T) {
	f := newFixture(t, TCPPressHB, 12)
	f.run(sec(30))
	f.d.HW.Node(3).Link.Up = false
	f.k.After(sec(60), func() { f.d.HW.Node(3).Link.Up = true })
	f.run(sec(60)) // t=60: fault 30s old; detection needed <= ~20s
	f.wantMembers(0, 0, 1, 2)
	f.wantMembers(1, 0, 1, 2)
	f.wantMembers(2, 0, 1, 2)

	f.run(sec(240))
	// The paper's surprise: no re-merge after repair; the cluster stays
	// splintered until an operator intervenes.
	f.wantMembers(0, 0, 1, 2)
	f.wantMembers(3, 3)
	// The 3-cluster keeps serving: post-detection throughput must be
	// well above zero even before repair.
	mid := f.throughput(sec(60), sec(85))
	if mid < testRate*0.5 {
		t.Fatalf("3-node throughput during fault = %.0f, too low", mid)
	}
}

// §5.2: the VIA versions detect the same fault almost instantaneously via
// broken connections.
func TestLinkFaultVIADetectsFast(t *testing.T) {
	for _, v := range []Version{VIAPress0, VIAPress3, VIAPress5} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v, 13)
			f.run(sec(30))
			f.d.HW.Node(3).Link.Up = false
			f.k.After(sec(60), func() { f.d.HW.Node(3).Link.Up = true })
			// Fail-stop detection within ~2 s.
			f.run(sec(33))
			f.wantMembers(0, 0, 1, 2)
			f.run(sec(240))
			f.wantMembers(0, 0, 1, 2) // no re-merge
			f.wantMembers(3, 3)
		})
	}
}

// §5.3: node crash under TCP-PRESS — the cluster stalls, the rebooted
// node's rejoin is disregarded, and only after the rebooted kernel resets
// the old connections do the remaining three form a group.
func TestNodeCrashTCPPressQuirk(t *testing.T) {
	f := newFixture(t, TCPPress, 14)
	f.run(sec(30))
	f.d.HW.Node(3).Crash()
	f.k.After(sec(60), func() { f.d.HW.Node(3).Boot() })
	f.run(sec(300))

	// End state: three cooperating nodes plus a standalone restarted
	// node that gave up rejoining.
	f.wantMembers(0, 0, 1, 2)
	f.wantMembers(1, 0, 1, 2)
	f.wantMembers(2, 0, 1, 2)
	f.wantMembers(3, 3)
	if s := f.d.Server(3); s == nil || !s.Alive() {
		t.Fatal("restarted server on node 3 should be running standalone")
	}
	// While the node was down the whole cluster stalled.
	during := f.throughput(sec(40), sec(85))
	if during > testRate*0.15 {
		t.Fatalf("throughput while node down = %.0f, want near zero", during)
	}
}

// §5.3: TCP-PRESS-HB and the VIA versions detect the crash quickly, keep
// serving on three nodes, and re-integrate the node after reboot.
func TestNodeCrashFastDetectorsReintegrate(t *testing.T) {
	for _, v := range []Version{TCPPressHB, VIAPress0, VIAPress5} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v, 15)
			f.run(sec(30))
			f.d.HW.Node(3).Crash()
			f.k.After(sec(60), func() { f.d.HW.Node(3).Boot() })

			f.run(sec(55)) // after detection, before reboot
			f.wantMembers(0, 0, 1, 2)
			during := f.throughput(sec(50), sec(55))
			if during < testRate*0.5 {
				t.Fatalf("3-node throughput while node down = %.0f, want > half", during)
			}

			f.run(sec(300))
			for i := 0; i < 4; i++ {
				f.wantMembers(i, 0, 1, 2, 3)
			}
			after := f.throughput(sec(200), sec(300))
			if after < testRate*0.9 {
				t.Fatalf("post-rejoin throughput = %.0f, want ~%.0f", after, testRate)
			}
		})
	}
}

// §5.3 (hangs): TCP-PRESS correctly treats an application hang as no
// fault — throughput zero while waiting, full recovery after.
func TestAppHangTCPPressWaitsAndResumes(t *testing.T) {
	f := newFixture(t, TCPPress, 16)
	f.run(sec(30))
	p := f.d.Process(3)
	p.Stop()
	f.k.After(sec(90), func() { p.Cont() })
	f.run(sec(100))
	during := f.throughput(sec(50), sec(115))
	if during > testRate*0.2 {
		t.Fatalf("throughput during hang = %.0f, want mostly stalled", during)
	}
	f.run(sec(300))
	for i := 0; i < 4; i++ {
		f.wantMembers(i, 0, 1, 2, 3)
	}
	after := f.throughput(sec(200), sec(300))
	if after < testRate*0.9 {
		t.Fatalf("post-hang throughput = %.0f, want full recovery", after)
	}
}

// §5.3: TCP-PRESS-HB incorrectly decides the hung node failed and
// splinters; the splinter persists after the node resumes.
func TestAppHangTCPHBFalseSplinter(t *testing.T) {
	f := newFixture(t, TCPPressHB, 17)
	f.run(sec(30))
	p := f.d.Process(3)
	p.Stop()
	f.k.After(sec(90), func() { p.Cont() })
	f.run(sec(300))
	f.wantMembers(0, 0, 1, 2)
	f.wantMembers(3, 3)
}

// Node hang under VIA: the frozen NIC stops hardware acks, connections
// break (fail-stop), the cluster splinters and stays splintered.
func TestNodeHangVIASplinters(t *testing.T) {
	f := newFixture(t, VIAPress3, 18)
	f.run(sec(30))
	f.d.HW.Node(3).Freeze()
	f.k.After(sec(90), func() { f.d.HW.Node(3).Unfreeze() })
	f.run(sec(300))
	f.wantMembers(0, 0, 1, 2)
	f.wantMembers(3, 3)
}

// §5.4: kernel memory exhaustion freezes TCP-PRESS entirely, splinters
// TCP-PRESS-HB, and leaves the VIA versions untouched (pre-allocation).
func TestKernelMemoryFault(t *testing.T) {
	t.Run("TCP-PRESS stalls", func(t *testing.T) {
		f := newFixture(t, TCPPress, 19)
		f.run(sec(30))
		f.d.OS[3].SetSKBufFault(true)
		f.k.After(sec(60), func() { f.d.OS[3].SetSKBufFault(false) })
		f.run(sec(240))
		during := f.throughput(sec(40), sec(85))
		if during > testRate*0.15 {
			t.Fatalf("throughput during kernel memory fault = %.0f, want near zero", during)
		}
		after := f.throughput(sec(180), sec(240))
		if after < testRate*0.9 {
			t.Fatalf("throughput after repair = %.0f", after)
		}
	})
	t.Run("TCP-PRESS-HB splinters", func(t *testing.T) {
		f := newFixture(t, TCPPressHB, 20)
		f.run(sec(30))
		f.d.OS[3].SetSKBufFault(true)
		f.k.After(sec(60), func() { f.d.OS[3].SetSKBufFault(false) })
		f.run(sec(70))
		f.wantMembers(0, 0, 1, 2)
	})
	t.Run("VIA immune", func(t *testing.T) {
		f := newFixture(t, VIAPress5, 21)
		f.run(sec(30))
		f.d.OS[3].SetSKBufFault(true)
		f.k.After(sec(60), func() { f.d.OS[3].SetSKBufFault(false) })
		f.run(sec(120))
		during := f.throughput(sec(35), sec(85))
		if during < testRate*0.95 {
			t.Fatalf("VIA throughput during kernel memory fault = %.0f, want unaffected", during)
		}
		for i := 0; i < 4; i++ {
			f.wantMembers(i, 0, 1, 2, 3)
		}
	})
}

// §5.4: pinnable-memory exhaustion only hurts VIA-PRESS-5, which sheds
// cached files (degraded but nonzero throughput) and recovers after.
func TestPinningFault(t *testing.T) {
	t.Run("VIA-PRESS-5 sheds cache", func(t *testing.T) {
		// The degradation is only visible near peak load (the paper
		// runs at near-peak): extra misses saturate the disks.
		const rate = 6500
		f := newFixtureRate(t, VIAPress5, 22, rate)
		f.run(sec(30))
		before := f.d.Server(3).CacheLen()
		baseline := f.throughput(sec(15), sec(30))
		os3 := f.d.OS[3]
		os3.SetPinThreshold(int64(float64(os3.Pinned()) * 0.15))
		f.k.After(sec(90), os3.RestorePinThreshold)
		f.run(sec(120))
		mid := f.d.Server(3).CacheLen()
		if mid >= before/2 {
			t.Fatalf("cache did not shed under pinning pressure: %d -> %d", before, mid)
		}
		during := f.throughput(sec(60), sec(115))
		if during >= baseline*0.97 {
			t.Fatalf("throughput during pin fault = %.0f, baseline %.0f: want a visible dip", during, baseline)
		}
		if during < baseline*0.2 {
			t.Fatalf("throughput during pin fault = %.0f collapsed; paper shows degraded, not dead", during)
		}
		f.run(sec(400))
		after := f.throughput(sec(330), sec(400))
		if after < baseline*0.95 {
			t.Fatalf("throughput after pin repair = %.0f, want recovered to ~%.0f", after, baseline)
		}
		for i := 0; i < 4; i++ {
			f.wantMembers(i, 0, 1, 2, 3)
		}
	})
	t.Run("VIA-PRESS-0 immune", func(t *testing.T) {
		f := newFixture(t, VIAPress0, 23)
		f.run(sec(30))
		os3 := f.d.OS[3]
		os3.SetPinThreshold(os3.Pinned() / 2)
		f.k.After(sec(90), os3.RestorePinThreshold)
		f.run(sec(150))
		during := f.throughput(sec(35), sec(115))
		if during < testRate*0.95 {
			t.Fatalf("VIA-0 throughput during pin fault = %.0f, want unaffected", during)
		}
	})
}

// countRestarts counts "press started" events per node.
func countRestarts(marks []metrics.Mark, node byte) int {
	n := 0
	for _, m := range marks {
		if len(m.Label) > 3 && m.Label[0] == 'n' && m.Label[1] == node &&
			containsStr(m.Label, "press started") {
			n++
		}
	}
	return n
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// §5.5: a NULL pointer passed to send. TCP gets a synchronous EFAULT and
// the process fail-fasts and restarts; one node restarts.
func TestNullPtrTCPOneRestart(t *testing.T) {
	f := newFixture(t, TCPPress, 24)
	f.d.Events = func(l string) { f.rec.MarkNow(l) }
	f.run(sec(30))
	oneShot(f.d.Server(2), func(p *comm.SendParams) { p.NullPtr = true })
	f.run(sec(300))
	if n := countRestarts(f.rec.Marks(), '2'); n != 1 {
		t.Fatalf("node 2 restarted %d times, want exactly 1", n)
	}
	for i := 0; i < 4; i++ {
		f.wantMembers(i, 0, 1, 2, 3)
	}
	after := f.throughput(sec(200), sec(300))
	if after < testRate*0.9 {
		t.Fatalf("throughput after restart = %.0f", after)
	}
}

// §5.5: with remote memory writes the NULL-pointer error is reported on
// BOTH nodes of the transfer; two processes terminate and restart.
func TestNullPtrVIA3TwoRestarts(t *testing.T) {
	f := newFixture(t, VIAPress3, 25)
	f.d.Events = func(l string) { f.rec.MarkNow(l) }
	f.run(sec(30))
	oneShot(f.d.Server(2), func(p *comm.SendParams) { p.NullPtr = true })
	f.run(sec(300))
	restarts := 0
	for n := byte('0'); n <= '3'; n++ {
		restarts += countRestarts(f.rec.Marks(), n)
	}
	if restarts != 2 {
		t.Fatalf("restarts = %d, want 2 (error reported at both ends)", restarts)
	}
	for i := 0; i < 4; i++ {
		f.wantMembers(i, 0, 1, 2, 3)
	}
}

// §5.5: VIA-PRESS-0's asynchronous error completion kills only the sender.
func TestNullPtrVIA0OneRestart(t *testing.T) {
	f := newFixture(t, VIAPress0, 26)
	f.d.Events = func(l string) { f.rec.MarkNow(l) }
	f.run(sec(30))
	oneShot(f.d.Server(2), func(p *comm.SendParams) { p.NullPtr = true })
	f.run(sec(300))
	restarts := 0
	for n := byte('0'); n <= '3'; n++ {
		restarts += countRestarts(f.rec.Marks(), n)
	}
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (sender only)", restarts)
	}
}

// §5.5: an off-by-N size corrupts the TCP byte stream; the receiver
// fail-fasts. VIA confines the error to one message but the receive
// descriptor errors out — either way exactly one process dies per fault.
func TestSizeOffsetOneSideDies(t *testing.T) {
	for _, v := range []Version{TCPPress, VIAPress0} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v, 27)
			f.d.Events = func(l string) { f.rec.MarkNow(l) }
			f.run(sec(30))
			oneShot(f.d.Server(2), func(p *comm.SendParams) { p.SizeOffset = 40 })
			f.run(sec(300))
			restarts := 0
			for n := byte('0'); n <= '3'; n++ {
				restarts += countRestarts(f.rec.Marks(), n)
			}
			if restarts != 1 {
				t.Fatalf("restarts = %d, want 1", restarts)
			}
			for i := 0; i < 4; i++ {
				f.wantMembers(i, 0, 1, 2, 3)
			}
		})
	}
}

// Application crash: every version detects it quickly (RST / broken VI),
// serves on three nodes, and re-integrates the restarted process.
func TestAppCrashAllVersionsRecover(t *testing.T) {
	for _, v := range Versions {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			f := newFixture(t, v, 28)
			f.run(sec(30))
			f.d.Process(1).Kill()
			f.run(sec(31)) // detection is fast; the daemon restarts at +3 s
			f.wantMembers(0, 0, 2, 3)
			f.run(sec(300))
			for i := 0; i < 4; i++ {
				f.wantMembers(i, 0, 1, 2, 3)
			}
			after := f.throughput(sec(200), sec(300))
			if after < testRate*0.9 {
				t.Fatalf("post-restart throughput = %.0f", after)
			}
		})
	}
}

// The §6.2 ablation: with a rigorous membership (remerge) protocol, the
// heartbeat false splinter heals itself instead of waiting for an operator.
func TestRemergeAblationHealsSplinter(t *testing.T) {
	k := sim.New(29)
	cfg := testConfig(TCPPressHB)
	cfg.Remerge = true
	rec := metrics.NewRecorder(k, time.Second)
	d := NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	tr := workload.NewTrace(workload.TraceConfig{
		Files: cfg.WorkingSetFiles, FileSize: int(cfg.FileSize), ZipfS: 1.2,
	}, rand.New(rand.NewSource(30)))
	cl := workload.NewClients(k, workload.DefaultClients(testRate, cfg.Nodes), tr, d, rec)
	cl.Start()
	k.Run(sec(30))
	d.HW.Node(3).Link.Up = false
	k.After(sec(60), func() { d.HW.Node(3).Link.Up = true })
	k.Run(sec(300))
	for i := 0; i < 4; i++ {
		s := d.Server(i)
		if s == nil || len(s.Members()) != 4 {
			t.Fatalf("node %d members = %v after remerge window, want full cluster",
				i, s.Members())
		}
	}
}

// The entire stack is deterministic: identical seeds produce identical
// request totals and identical membership trajectories, even through a
// fault and recovery.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (int64, int64, string) {
		f := newFixture(t, VIAPress5, 99)
		var marks []string
		f.d.Events = func(l string) { marks = append(marks, l) }
		f.run(sec(30))
		f.d.HW.Node(3).Crash()
		f.k.After(sec(30), func() { f.d.HW.Node(3).Boot() })
		f.run(sec(150))
		served, failed := f.rec.Totals()
		all := ""
		for _, m := range marks {
			all += m + "\n"
		}
		return served, failed, all
	}
	s1, f1, m1 := run()
	s2, f2, m2 := run()
	if s1 != s2 || f1 != f2 {
		t.Fatalf("totals differ across identical runs: %d/%d vs %d/%d", s1, f1, s2, f2)
	}
	if m1 != m2 {
		t.Fatal("event traces differ across identical runs")
	}
	if s1 == 0 {
		t.Fatal("nothing served")
	}
}

// Submit's reachability semantics: host down => Unreachable, process dead
// => Refused, overloaded backlog => Unreachable, healthy => Accepted.
func TestSubmitSemantics(t *testing.T) {
	k := sim.New(41)
	cfg := testConfig(TCPPress)
	d := NewDeployment(k, cfg)
	d.DaemonEnabled = false
	d.Start()
	mk := func() *workload.Request { return &workload.Request{File: 1, Node: 2} }

	if got := d.Submit(mk()); got != workload.Accepted {
		t.Fatalf("healthy submit = %v", got)
	}
	d.HW.Node(2).Freeze()
	if got := d.Submit(mk()); got != workload.Unreachable {
		t.Fatalf("frozen submit = %v", got)
	}
	d.HW.Node(2).Unfreeze()
	d.Process(2).Kill()
	if got := d.Submit(mk()); got != workload.Refused {
		t.Fatalf("dead-process submit = %v", got)
	}
	d.HW.Node(2).Crash()
	if got := d.Submit(mk()); got != workload.Unreachable {
		t.Fatalf("crashed-host submit = %v", got)
	}
}
