package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vivo/internal/metrics"
	"vivo/internal/sim"
)

func TestTraceSamplesWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewTrace(TraceConfig{Files: 1000, FileSize: 8192, ZipfS: 1.2}, rng)
	for i := 0; i < 10000; i++ {
		f := tr.Next()
		if f < 0 || f >= 1000 {
			t.Fatalf("file id %d out of range", f)
		}
	}
}

func TestTraceIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTrace(TraceConfig{Files: 10000, FileSize: 8192, ZipfS: 1.2}, rng)
	counts := map[int]int{}
	n := 50000
	for i := 0; i < n; i++ {
		counts[tr.Next()]++
	}
	// A Zipf trace concentrates mass: the most popular single document
	// should far exceed the uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/1000 {
		t.Fatalf("most popular file has %d of %d requests; distribution looks uniform", max, n)
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct files requested; too concentrated", len(counts))
	}
}

func TestTraceDeterministicPerSeed(t *testing.T) {
	sample := func(seed int64) []int {
		tr := NewTrace(DefaultTrace(), rand.New(rand.NewSource(seed)))
		out := make([]int, 100)
		for i := range out {
			out[i] = tr.Next()
		}
		return out
	}
	a, b := sample(7), sample(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

// fakeBackend scripts Submit results and optionally completes requests
// after a delay.
type fakeBackend struct {
	k       *sim.Kernel
	result  SubmitResult
	latency time.Duration
	submits []*Request
}

func (f *fakeBackend) Submit(r *Request) SubmitResult {
	f.submits = append(f.submits, r)
	if f.result == Accepted && f.latency >= 0 {
		f.k.After(f.latency, r.Complete)
	}
	return f.result
}

func TestPoissonRateApproximatesTarget(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Accepted, latency: time.Millisecond}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(1000, 4), tr, be, rec)
	cl.Start()
	k.Run(30 * time.Second)
	cl.Stop()
	got := float64(len(be.submits)) / 30.0
	if math.Abs(got-1000) > 60 {
		t.Fatalf("arrival rate = %.0f/s, want about 1000/s", got)
	}
}

func TestRoundRobinNodeSelection(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Accepted, latency: time.Millisecond}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(400, 4), tr, be, rec)
	cl.Start()
	k.Run(10 * time.Second)
	counts := make([]int, 4)
	for _, r := range be.submits {
		counts[r.Node]++
	}
	total := len(be.submits)
	for i, c := range counts {
		share := float64(c) / float64(total)
		if math.Abs(share-0.25) > 0.01 {
			t.Fatalf("node %d got %.3f of requests, want 0.25", i, share)
		}
	}
}

func TestCompletedWithinDeadlineIsServed(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Accepted, latency: 100 * time.Millisecond}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(100, 4), tr, be, rec)
	cl.Start()
	k.Run(10 * time.Second)
	cl.Stop()
	k.Run(20 * time.Second)
	served, failed := rec.Totals()
	if failed != 0 || served == 0 {
		t.Fatalf("served=%d failed=%d, want all served", served, failed)
	}
}

func TestSlowResponseTimesOutAt6s(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Accepted, latency: 10 * time.Second} // too slow
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(50, 4), tr, be, rec)
	cl.Start()
	k.Run(5 * time.Second)
	cl.Stop()
	k.Run(60 * time.Second)
	served, failed := rec.Totals()
	if served != 0 || failed == 0 {
		t.Fatalf("served=%d failed=%d, want all request-timeouts", served, failed)
	}
	// Late Complete calls must not double-count.
	tl := rec.Timeline()
	sum := 0.0
	for _, p := range tl.Points {
		sum += p.Throughput + p.Failures
	}
	if int64(sum+0.5) != failed {
		t.Fatalf("timeline total %.0f != failed %d", sum, failed)
	}
}

func TestRefusedRecordedImmediately(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Refused}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(50, 4), tr, be, rec)
	cl.Start()
	k.Run(5 * time.Second)
	_, failed := rec.Totals()
	if failed == 0 {
		t.Fatal("refused requests not recorded")
	}
}

func TestUnreachableCostsConnectTimeout(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Unreachable}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(100, 4), tr, be, rec)
	cl.Start()
	k.Run(1 * time.Second)
	cl.Stop()
	// Outcomes land 2 s after the attempt, not immediately.
	_, failedEarly := rec.Totals()
	if failedEarly != 0 {
		t.Fatalf("unreachable outcomes recorded before the 2s connect timeout")
	}
	k.Run(10 * time.Second)
	_, failed := rec.Totals()
	if failed == 0 {
		t.Fatal("unreachable requests never recorded")
	}
}

func TestDoubleCompleteAndFailAreIdempotent(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Second)
	be := &fakeBackend{k: k, result: Accepted, latency: -1} // never auto-complete
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(100, 4), tr, be, rec)
	cl.Start()
	k.Run(500 * time.Millisecond)
	cl.Stop()
	if len(be.submits) == 0 {
		t.Fatal("no submissions")
	}
	r := be.submits[0]
	r.Complete()
	r.Complete()
	r.Fail(metrics.Refused)
	served, failed := rec.Totals()
	if served != 1 || failed != 0 {
		t.Fatalf("served=%d failed=%d after duplicate settlement", served, failed)
	}
}

// holdingBackend accepts every request and keeps the latest one, so the
// caller settles it.
type holdingBackend struct{ last *Request }

func (h *holdingBackend) Submit(r *Request) SubmitResult {
	h.last = r
	return Accepted
}

// Once warm, issuing a request that the backend accepts, and settling it,
// allocates only the Request: its timeout comes from a recycled record.
func TestIssueAllocatesOnlyTheRequest(t *testing.T) {
	k := sim.New(3)
	rec := metrics.NewRecorder(k, time.Hour)
	be := &holdingBackend{}
	tr := NewTrace(TraceConfig{Files: 100, FileSize: 8192, ZipfS: 1.2}, k.Rand())
	cl := NewClients(k, DefaultClients(100, 4), tr, be, rec)
	issue := func() {
		cl.issue()
		be.last.Complete()
	}
	issue() // warm the timeout free list and the kernel arena
	if allocs := testing.AllocsPerRun(100, issue); allocs != 1 {
		t.Fatalf("an issued request allocates %.1f times, want 1 (the Request)", allocs)
	}
	if served, _ := rec.Totals(); served != 102 || k.Pending() != 0 {
		t.Fatalf("served %d of 102, %d timers still armed", served, k.Pending())
	}
	// A timeout that fires recycles its record as well.
	cl.issue()
	k.RunAll()
	if _, failed := rec.Totals(); failed != 1 || len(cl.timeouts) != 1 {
		t.Fatalf("failed %d, %d free timeout records after a request timed out", failed, len(cl.timeouts))
	}
}
