package press

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"vivo/internal/comm"
	"vivo/internal/metrics"
	"vivo/internal/sim"
	"vivo/internal/workload"
)

// forwardSampler asks every initial node for a file another node caches
// (WarmStart puts file f on node f mod N), so each request takes the
// forward path: accept -> forward -> serve -> FileData -> finish.
type forwardSampler struct {
	cfg  workload.TraceConfig
	next int
}

func (s *forwardSampler) Config() workload.TraceConfig { return s.cfg }

func (s *forwardSampler) Next() int {
	n := 4
	initial := s.next % n
	s.next++
	// Files near the top of the working set are still cached after
	// WarmStart's evictions.
	return s.cfg.Files - 4*n + (initial+1)%n + n*(s.next%3)
}

// Once warm, a forwarded request allocates only its workload.Request on
// either substrate: the CPU tasks, wire payloads, frames, packets and
// deliveries along the way all come from free lists.
func TestForwardRoundTripAllocatesOnlyTheRequest(t *testing.T) {
	for _, v := range []Version{TCPPress, VIAPress5} {
		t.Run(v.String(), func(t *testing.T) {
			k := sim.New(1)
			cfg := testConfig(v)
			d := NewDeployment(k, cfg)
			d.Start()
			d.WarmStart()
			rec := metrics.NewRecorder(k, time.Hour)
			tr := &forwardSampler{cfg: workload.TraceConfig{Files: cfg.WorkingSetFiles, FileSize: int(cfg.FileSize), ZipfS: 1.2}}
			cl := workload.NewClients(k, workload.DefaultClients(20, cfg.Nodes), tr, d, rec)
			k.Run(time.Second) // connections up
			cl.Start()
			request := func() {
				for n := cl.Issued(); cl.Issued() == n; {
					k.Step()
				}
				for cl.Unsettled() > 0 {
					k.Step()
				}
			}
			for i := 0; i < 20; i++ {
				request() // warm every node's free lists and queues
			}
			if allocs := testing.AllocsPerRun(100, request); allocs != 1 {
				t.Errorf("a forwarded request allocates %.1f times, want 1 (the Request)", allocs)
			}
			served, failed := rec.Totals()
			forwarded := 0
			for i := 0; i < cfg.Nodes; i++ {
				forwarded += int(d.Server(i).nextReqID)
			}
			if issued := cl.Issued(); issued < 121 || served != issued || failed != 0 || forwarded != int(issued) {
				t.Fatalf("issued %d requests: served %d, failed %d, forwarded %d", issued, served, failed, forwarded)
			}
		})
	}
}

// WarmStart fills caches and directories in storage sized when the
// servers started: its allocations do not grow with the working set.
func TestWarmStartAllocationsIndependentOfWorkingSet(t *testing.T) {
	// MemStats.Mallocs is process-wide: a stray runtime allocation during
	// one measured call can only add to its count. The minimum over fresh
	// deployments filters those out, while an allocation that scales with
	// the working set shows up in every sample and still fails the test.
	const samples = 5
	warmStartAllocs := func(files int) uint64 {
		least := uint64(math.MaxUint64)
		for range samples {
			cfg := testConfig(TCPPressHB)
			cfg.WorkingSetFiles = files
			d := NewDeployment(sim.New(1), cfg)
			d.Start()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			d.WarmStart()
			runtime.ReadMemStats(&m1)
			if got := d.Server(0).CacheLen(); got != 2048 {
				t.Fatalf("%d files: node 0 caches %d, want a full cache of 2048", files, got)
			}
			least = min(least, m1.Mallocs-m0.Mallocs)
		}
		return least
	}
	small, large := warmStartAllocs(9500), warmStartAllocs(38000)
	t.Logf("WarmStart allocates %d times", small)
	if small != large {
		t.Fatalf("WarmStart allocates %d times for 9500 files and %d for 38000", small, large)
	}
}

// File ids past the preset working set (a replayed log, a harness
// sampler) grow the directory, and requests for them are routed by it.
func TestDirectoryGrowsPastWorkingSet(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig(TCPPress)
	d := NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	k.Run(time.Second)
	s0, s1 := d.Server(0), d.Server(1)
	big := 3*cfg.WorkingSetFiles + 1
	if len(s0.dir) != cfg.WorkingSetFiles || s0.dirMask(big) != 0 {
		t.Fatalf("directory of %d entries, mask of file %d = %b", len(s0.dir), big, s0.dirMask(big))
	}
	s1.insertFile(big) // cached on node 1, announced to the others
	k.Run(k.Now() + 100*time.Millisecond)
	if len(s0.dir) <= big || s0.dirMask(big) != 1<<1 {
		t.Fatalf("node 0's directory did not grow to file %d (%d entries, mask %b)", big, len(s0.dir), s0.dirMask(big))
	}
	if svc, ok := s0.pickService(big); !ok || svc != 1 {
		t.Fatalf("pickService(%d) = %d, %v; want node 1", big, svc, ok)
	}
	rec := metrics.NewRecorder(k, time.Hour)
	cl := workload.NewClients(k, workload.DefaultClients(1, cfg.Nodes), &fixedSampler{file: big}, d, rec)
	cl.Start()
	k.Run(k.Now() + 5*time.Second)
	cl.Stop()
	k.Run(k.Now() + 10*time.Second)
	served, failed := rec.Totals()
	if served == 0 || failed != 0 || s0.nextReqID == 0 {
		t.Fatalf("served %d, failed %d, node 0 forwarded %d", served, failed, s0.nextReqID)
	}
}

type fixedSampler struct{ file int }

func (s *fixedSampler) Next() int                    { return s.file }
func (s *fixedSampler) Config() workload.TraceConfig { return workload.TraceConfig{Files: s.file + 1} }

// recordingEngine stands in for a send engine and keeps what it is given.
type recordingEngine struct {
	dst  []int
	sent []comm.SendParams
}

func (e *recordingEngine) transmitOrQueue(dst int, p comm.SendParams) {
	e.dst = append(e.dst, dst)
	e.sent = append(e.sent, p)
}
func (e *recordingEngine) onWritable(int)   {}
func (e *recordingEngine) kick()            {}
func (e *recordingEngine) dropQueuedTo(int) {}
func (e *recordingEngine) reset()           {}

// sendCacheSummary streams the files this node caches in ascending
// chunks: the directory walk is in id order.
func TestCacheSummaryChunksAscending(t *testing.T) {
	k := sim.New(1)
	cfg := testConfig(TCPPress)
	cfg.WorkingSetFiles = 40000
	cfg.CacheBytes = 16384 * cfg.FileSize // no evictions
	d := NewDeployment(k, cfg)
	d.Start()
	d.WarmStart()
	k.Run(time.Second)
	s := d.Server(2)
	e := &recordingEngine{}
	s.engine = e
	s.sendCacheSummary(0)
	k.Run(k.Now() + time.Second)
	var files []int
	chunks := 0
	for i, p := range e.sent {
		if p.Msg.Kind != msgCacheSummary {
			continue
		}
		w := p.Msg.Payload.(*wire)
		if e.dst[i] != 0 || len(w.Files) == 0 || len(w.Files) > 4096 || p.Msg.Size != 8*len(w.Files) {
			t.Fatalf("chunk %d: %d files of size %d to node %d", chunks, len(w.Files), p.Msg.Size, e.dst[i])
		}
		chunks++
		files = append(files, w.Files...)
	}
	if chunks != 3 || len(files) != 10000 {
		t.Fatalf("%d chunks of %d files, want 3 chunks of the 10000 node 2 caches", chunks, len(files))
	}
	if !slices.IsSorted(files) {
		t.Fatal("summary chunks are not in ascending file order")
	}
	for _, f := range files {
		if f%cfg.Nodes != 2 {
			t.Fatalf("summary lists file %d, which node 2 does not cache", f)
		}
	}
}
