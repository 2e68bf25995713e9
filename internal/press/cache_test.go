package press

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vivo/internal/cluster"
	"vivo/internal/osmodel"
	"vivo/internal/sim"
	subvia "vivo/internal/substrate/via"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3*8192, 8192, nil) // 3 files
	for f := 0; f < 3; f++ {
		if ev, ok := c.Insert(f); !ok || len(ev) != 0 {
			t.Fatalf("insert %d: ev=%v ok=%v", f, ev, ok)
		}
	}
	// Touch 0 so 1 becomes LRU.
	if !c.Touch(0) {
		t.Fatal("touch miss on cached file")
	}
	ev, ok := c.Insert(3)
	if !ok || len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
	if c.Contains(1) || !c.Contains(0) || !c.Contains(3) {
		t.Fatal("wrong contents after eviction")
	}
}

func TestCacheDuplicateInsertIsTouch(t *testing.T) {
	c := NewCache(2*8192, 8192, nil)
	c.Insert(0)
	c.Insert(1)
	c.Insert(0) // refresh 0
	ev, _ := c.Insert(2)
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] (0 was refreshed)", ev)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheDrop(t *testing.T) {
	c := NewCache(2*8192, 8192, nil)
	c.Insert(7)
	if !c.Drop(7) || c.Contains(7) {
		t.Fatal("drop failed")
	}
	if c.Drop(7) {
		t.Fatal("double drop succeeded")
	}
}

func TestCachePinningShedsUnderPressure(t *testing.T) {
	k := sim.New(1)
	hw := cluster.New(k, cluster.DefaultConfig())
	os := osmodel.New(k, hw.Node(0), 10*8192) // pin budget: 10 files
	c := NewCache(100*8192, 8192, os)         // capacity far above pin budget
	for f := 0; f < 10; f++ {
		if _, ok := c.Insert(f); !ok {
			t.Fatalf("insert %d failed within pin budget", f)
		}
	}
	// Budget exhausted: the next insert sheds the LRU entry to make room.
	ev, ok := c.Insert(10)
	if !ok || len(ev) != 1 || ev[0] != 0 {
		t.Fatalf("ev=%v ok=%v, want shed of file 0", ev, ok)
	}
	if os.Pinned() != 10*8192 {
		t.Fatalf("pinned = %d, want exactly the budget", os.Pinned())
	}
	// Lower the threshold (the pin fault): next insert sheds several.
	os.SetPinThreshold(5 * 8192)
	ev, ok = c.Insert(11)
	if !ok {
		t.Fatal("insert should succeed after shedding")
	}
	if c.Len() != 5 {
		t.Fatalf("cache len = %d, want shed down to the threshold", c.Len())
	}
	if len(ev) != 6 {
		t.Fatalf("shed %d entries, want 6", len(ev))
	}
}

func TestCachePinFailureWithEmptyCache(t *testing.T) {
	k := sim.New(1)
	hw := cluster.New(k, cluster.DefaultConfig())
	os := osmodel.New(k, hw.Node(0), 100)
	c := NewCache(10*8192, 8192, os)
	if _, ok := c.Insert(0); ok {
		t.Fatal("insert should fail when even an empty cache cannot pin")
	}
	if c.Len() != 0 {
		t.Fatal("failed insert left residue")
	}
}

func TestCacheDropAllUnpins(t *testing.T) {
	k := sim.New(1)
	hw := cluster.New(k, cluster.DefaultConfig())
	os := osmodel.New(k, hw.Node(0), 100*8192)
	c := NewCache(100*8192, 8192, os)
	for f := 0; f < 20; f++ {
		c.Insert(f)
	}
	c.DropAll()
	if os.Pinned() != 0 || c.Len() != 0 {
		t.Fatalf("pinned=%d len=%d after DropAll", os.Pinned(), c.Len())
	}
}

// Property: the cache never exceeds its capacity and Contains matches
// Insert/Drop history.
func TestPropertyCacheCapacityInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		c := NewCache(8*8192, 8192, nil)
		live := map[int]bool{}
		for _, op := range ops {
			file := int(op) % 64
			if file < 0 {
				file = -file
			}
			if op%3 == 0 {
				if c.Drop(file) != live[file] {
					return false
				}
				delete(live, file)
			} else {
				ev, ok := c.Insert(file)
				if !ok {
					return false
				}
				live[file] = true
				for _, e := range ev {
					delete(live, e)
				}
			}
			if c.Len() > 8 || c.Len() != len(live) {
				return false
			}
		}
		for f := range live {
			if !c.Contains(f) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiskParallelSpindles(t *testing.T) {
	k := sim.New(1)
	d := NewDisk(k, 2, 6*time.Millisecond)
	var done []sim.Time
	for i := 0; i < 4; i++ {
		d.Read(func() { done = append(done, k.Now()) })
	}
	if d.Queued() != 4 {
		t.Fatalf("queued = %d", d.Queued())
	}
	k.RunAll()
	// Two spindles: completions at 6, 6, 12, 12 ms.
	want := []time.Duration{6, 6, 12, 12}
	for i, w := range want {
		if done[i] != w*time.Millisecond {
			t.Fatalf("read %d at %v, want %vms (got all: %v)", i, done[i], w, done)
		}
	}
	if d.Queued() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestDiskThroughputBound(t *testing.T) {
	k := sim.New(1)
	d := NewDisk(k, 2, 6*time.Millisecond)
	n := 0
	for i := 0; i < 1000; i++ {
		d.Read(func() { n++ })
	}
	k.Run(time.Second)
	// 2 spindles at 6ms: at most ~333 reads per second.
	if n < 330 || n > 336 {
		t.Fatalf("completed %d reads in 1s, want ~333", n)
	}
}

func TestVersionFlags(t *testing.T) {
	cases := []struct {
		v                 Version
		via, rdma, zc, hb bool
		name              string
	}{
		{TCPPress, false, false, false, false, "TCP-PRESS"},
		{TCPPressHB, false, false, false, true, "TCP-PRESS-HB"},
		{VIAPress0, true, false, false, false, "VIA-PRESS-0"},
		{VIAPress3, true, true, false, false, "VIA-PRESS-3"},
		{VIAPress5, true, true, true, false, "VIA-PRESS-5"},
	}
	for _, c := range cases {
		vo, _ := c.v.Spec().Substrate.(subvia.Options)
		if c.v.UsesVIA() != c.via || vo.RemoteWrites != c.rdma ||
			c.v.ZeroCopy() != c.zc || c.v.Heartbeats() != c.hb || c.v.String() != c.name {
			t.Errorf("%v flags wrong", c.v)
		}
	}
}

// The analytic calibration identity: with the cost model and a 75% forward
// fraction, per-request CPU should put cluster capacity near Table 1.
func TestCostModelCalibrationIdentity(t *testing.T) {
	for _, v := range Versions {
		c := v.Spec().Costs
		read := c.CacheRead
		if v.ZeroCopy() {
			read = c.CacheReadZeroCopy
		}
		fwd := c.SendSmall + c.RecvSmall + c.SendData + c.RecvData + read
		perReq := c.ClientHandle + time.Duration(0.25*float64(read)) + time.Duration(0.75*float64(fwd))
		capacity := 4 / perReq.Seconds()
		paper := Table1Throughput(v)
		if capacity < paper*0.93 || capacity > paper*1.07 {
			t.Errorf("%v: analytic capacity %.0f vs paper %.0f", v, capacity, paper)
		}
	}
}

// refCache is the reference model for the differential test: a map for
// membership and a slice in recency order (most recent first), with the
// pinning rules of Cache restated over it.
type refCache struct {
	capacity int
	fileSize int64
	pin      *osmodel.OS
	in       map[int]bool
	order    []int
}

func (r *refCache) touch(f int) bool {
	if !r.in[f] {
		return false
	}
	i := slices.Index(r.order, f)
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, f)
	return true
}

func (r *refCache) evictLRU(evicted *[]int) bool {
	if len(r.order) == 0 {
		return false
	}
	f := r.order[len(r.order)-1]
	r.order = r.order[:len(r.order)-1]
	delete(r.in, f)
	if r.pin != nil {
		r.pin.Unpin(r.fileSize)
	}
	*evicted = append(*evicted, f)
	return true
}

func (r *refCache) insert(f int) (evicted []int, ok bool) {
	if r.touch(f) {
		return nil, true
	}
	for len(r.order) >= r.capacity && r.evictLRU(&evicted) {
	}
	if r.pin != nil {
		for r.pin.Pin(r.fileSize) != nil {
			if !r.evictLRU(&evicted) {
				return evicted, false
			}
		}
	}
	r.in[f] = true
	r.order = slices.Insert(r.order, 0, f)
	return evicted, true
}

func (r *refCache) drop(f int) bool {
	if !r.in[f] {
		return false
	}
	delete(r.in, f)
	i := slices.Index(r.order, f)
	r.order = slices.Delete(r.order, i, i+1)
	if r.pin != nil {
		r.pin.Unpin(r.fileSize)
	}
	return true
}

func (r *refCache) dropAll() {
	if r.pin != nil {
		r.pin.Unpin(int64(len(r.order)) * r.fileSize)
	}
	clear(r.in)
	r.order = r.order[:0]
}

// Differential test: random Insert/Touch/Drop/DropAll sequences, with
// pinning failures from a moving pin threshold and file ids beyond the
// reserved range, leave Cache and the reference model in the same state
// and produce the same eviction lists.
func TestCacheMatchesReferenceModel(t *testing.T) {
	const reserved, fileSize = 64, 8192
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.New(seed)
		hw := cluster.New(k, cluster.DefaultConfig())
		var pinC, pinR *osmodel.OS
		if seed%2 == 0 { // zero-copy: pin every cached file
			pinC = osmodel.New(k, hw.Node(0), 40*fileSize)
			pinR = osmodel.New(k, hw.Node(1), 40*fileSize)
		}
		capacity := 8 + rng.Intn(48)
		c := NewCache(int64(capacity)*fileSize, fileSize, pinC)
		c.reserve(reserved)
		ref := &refCache{capacity: capacity, fileSize: fileSize, pin: pinR, in: map[int]bool{}}
		for op := 0; op < 3000; op++ {
			f := rng.Intn(3 * reserved) // a third of the ids are reserved
			switch x := rng.Intn(100); {
			case x < 50:
				ev, ok := c.Insert(f)
				wantEv, wantOK := ref.insert(f)
				if ok != wantOK || !slices.Equal(ev, wantEv) {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, %v; want %v, %v", seed, op, f, ev, ok, wantEv, wantOK)
				}
			case x < 80:
				if got, want := c.Touch(f), ref.touch(f); got != want {
					t.Fatalf("seed %d op %d: Touch(%d) = %v, want %v", seed, op, f, got, want)
				}
			case x < 95:
				if got, want := c.Drop(f), ref.drop(f); got != want {
					t.Fatalf("seed %d op %d: Drop(%d) = %v, want %v", seed, op, f, got, want)
				}
			case x < 97:
				c.DropAll()
				ref.dropAll()
			default: // the pinnable-memory fault moves the threshold
				if pinC != nil {
					th := int64(rng.Intn(50)) * fileSize
					pinC.SetPinThreshold(th)
					pinR.SetPinThreshold(th)
				}
			}
			if c.Len() != len(ref.order) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, c.Len(), len(ref.order))
			}
			if pinC != nil && pinC.Pinned() != pinR.Pinned() {
				t.Fatalf("seed %d op %d: pinned %d, want %d", seed, op, pinC.Pinned(), pinR.Pinned())
			}
		}
		// Same contents in the same recency order.
		for f := 0; f < 3*reserved; f++ {
			if c.Contains(f) != ref.in[f] {
				t.Fatalf("seed %d: Contains(%d) = %v, want %v", seed, f, c.Contains(f), ref.in[f])
			}
		}
		var order []int
		for i := c.head; i != noEntry; i = c.ents[i].next {
			order = append(order, c.ents[i].file)
		}
		if !slices.Equal(order, ref.order) {
			t.Fatalf("seed %d: recency order %v, want %v", seed, order, ref.order)
		}
	}
}
