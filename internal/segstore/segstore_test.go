package segstore

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPrivateFIFO is the paper's free list as a one-magazine Store under one
// cache: a fresh pool allocates in ascending order, and loose segments come
// back in the order they were freed, behind those never handed out.
func TestPrivateFIFO(t *testing.T) {
	st, p := fifoPool(t, 8)
	// Fresh pool allocates in ascending order.
	for want := int32(0); want < 8; want++ {
		s, ok := alloc1(p)
		if !ok || s != want {
			t.Fatalf("Alloc = (%d, %v), want (%d, true)", s, ok, want)
		}
	}
	if _, ok := alloc1(p); ok {
		t.Fatal("alloc succeeded on empty pool")
	}
	// FIFO recycling: freeing 3, 1, 4 hands them back in that order.
	for _, s := range []int32{3, 1, 4} {
		free1(p, s)
	}
	for _, want := range []int32{3, 1, 4} {
		s, ok := alloc1(p)
		if !ok || s != want {
			t.Fatalf("recycled Alloc = (%d, %v), want (%d, true)", s, ok, want)
		}
	}
	// A lent segment goes back through the depot, which is reached only
	// after the free side: 5 returns lent before 2 is freed, and comes out
	// after it.
	p.Lend(1)
	p.ReturnLent(5, 5, 1)
	free1(p, 2)
	for _, want := range []int32{2, 5} {
		s, ok := alloc1(p)
		if !ok || s != want {
			t.Fatalf("Alloc after a lent return = (%d, %v), want (%d, true)", s, ok, want)
		}
	}
	for s := int32(0); s < 8; s++ {
		free1(p, s)
	}
	if p.FreeSegments() != 8 {
		t.Fatalf("FreeSegments = %d, want 8", p.FreeSegments())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheDrainsWholePool(t *testing.T) {
	const n = 1000 // not a magazine multiple: exercises the remainder chain
	st, err := New(Config{NumSegments: n})
	if err != nil {
		t.Fatal(err)
	}
	c := st.NewCache()
	if st.Free() != n {
		t.Fatalf("Free = %d, want %d", st.Free(), n)
	}
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		s, ok := alloc1(c)
		if !ok {
			t.Fatalf("alloc %d failed with %d free", i, st.Free())
		}
		if seen[s] {
			t.Fatalf("segment %d allocated twice", s)
		}
		seen[s] = true
	}
	if _, ok := alloc1(c); ok {
		t.Fatal("alloc succeeded on exhausted pool")
	}
	if st.Free() != 0 || c.Avail() != 0 {
		t.Fatalf("Free = %d, Avail = %d after draining", st.Free(), c.Avail())
	}
	for s := int32(0); s < n; s++ {
		free1(c, s)
	}
	c.Publish()
	if st.Free() != n {
		t.Fatalf("Free = %d, want %d after refill", st.Free(), n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLentSettlesAtPublish is the Cache.Lend contract on a shared store:
// lending is the owner's plain delta until Publish adds it to the pool's
// count once; the owner's own Lent settles first; another cache's read and
// Store.Lent see it from the Publish on.
func TestLentSettlesAtPublish(t *testing.T) {
	st, err := New(Config{NumSegments: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.NewCache(), st.NewCache()
	a.Lend(3)
	a.Lend(2)
	if st.Lent() != 0 || b.Lent() != 0 {
		t.Fatalf("Store.Lent = %d, the other owner reads %d inside the lender's section, want 0", st.Lent(), b.Lent())
	}
	if a.Lent() != 5 || st.Lent() != 5 {
		t.Fatalf("owner reads %d lent, store %d after it, want 5", a.Lent(), st.Lent())
	}
	a.Lend(-5) // a commit takes a reserved run back ...
	b.Lend(4)  // ... while another owner lends
	a.Publish()
	b.Publish()
	if st.Lent() != 4 {
		t.Fatalf("Store.Lent = %d with both sections over, want 4", st.Lent())
	}
}

func TestFlushMakesSegmentsReachable(t *testing.T) {
	st, err := New(Config{NumSegments: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.NewCache(), st.NewCache()
	held := make([]int32, 0, 256)
	for {
		s, ok := alloc1(a)
		if !ok {
			break
		}
		held = append(held, s)
	}
	if len(held) != 256 {
		t.Fatalf("cache a drained %d segments, want 256", len(held))
	}
	// Frees land in a's magazines: globally free, unreachable from b.
	for _, s := range held[:10] {
		free1(a, s)
	}
	a.Publish()
	if st.Free() != 10 {
		t.Fatalf("Free = %d, want 10", st.Free())
	}
	if _, ok := alloc1(b); ok {
		t.Fatal("cache b allocated from cache a's magazines without a flush")
	}
	a.Flush()
	if got := a.Avail(); got != 10 {
		t.Fatalf("a.Avail = %d after flush, want 10 (via depot)", got)
	}
	got, ok := alloc1(b)
	if !ok {
		t.Fatal("cache b cannot allocate after flush")
	}
	free1(b, got)
	free1(b, held[10])
	held = held[11:]
	for _, s := range held {
		free1(a, s)
	}
	a.Flush()
	b.Flush()
	if st.Free() != 256 {
		t.Fatalf("Free = %d, want 256 after full return", st.Free())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDataSlab: every store has its payload slab, SegmentBytes per
// segment, whatever the ignored Config.StoreData and Config.SegmentBytes say.
func TestStoreDataSlab(t *testing.T) {
	st, err := New(Config{NumSegments: 4, StoreData: false, SegmentBytes: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.View().Data) != 4*64 {
		t.Fatalf("data slab = %d bytes, want 256", len(st.View().Data))
	}
	if _, err := New(Config{NumSegments: 0}); err == nil {
		t.Fatal("zero NumSegments accepted")
	}
}

// TestConcurrentMagazineChurn hammers the depot from many caches at once:
// each worker allocates bursts, stamps ownership with a CAS so any
// double-allocation is caught immediately, frees, and occasionally flushes.
// Run under -race: this is the lock-free free-list correctness test.
func TestConcurrentMagazineChurn(t *testing.T) {
	const (
		workers = 8
		n       = 4096
		rounds  = 2000
	)
	st, err := New(Config{NumSegments: n})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]atomic.Int32, n)
	caches := make([]*Cache, workers)
	for i := range caches {
		caches[i] = st.NewCache()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := caches[w]
			id := int32(w + 1)
			held := make([]int32, 0, 128)
			for r := 0; r < rounds; r++ {
				burst := 1 + rng.Intn(80)
				for i := 0; i < burst; i++ {
					s, ok := alloc1(c)
					if !ok {
						break
					}
					if !owner[s].CompareAndSwap(0, id) {
						t.Errorf("segment %d allocated twice (owners %d and %d)", s, owner[s].Load(), id)
						return
					}
					held = append(held, s)
				}
				// Free a random prefix.
				k := rng.Intn(len(held) + 1)
				for _, s := range held[:k] {
					if !owner[s].CompareAndSwap(id, 0) {
						t.Errorf("segment %d freed while not owned", s)
						return
					}
					free1(c, s)
				}
				held = append(held[:0], held[k:]...)
				if r%64 == 0 {
					c.Flush()
				}
			}
			for _, s := range held {
				owner[s].Store(0)
				free1(c, s)
			}
			c.Flush()
		}(w)
	}
	wg.Wait()
	if st.Free() != n {
		t.Fatalf("Free = %d, want %d after churn", st.Free(), n)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChainChurn is TestConcurrentMagazineChurn for whole chains:
// workers allocate runs of 1…MaxGrain+8 segments as the queue layer does (a
// whole chain off its bin, else AllocN), and give them back through FreeN
// (bins, spilling to the grain stacks) or, lent, as same-size and mixed
// batches straight to the depot — so every grain stack and the grain mask
// are pushed, popped and cleared from several goroutines at once, and a
// chain is cut by its words while others push chains onto the same stacks.
// Run under -race.
func TestConcurrentChainChurn(t *testing.T) {
	const (
		workers = 4
		n       = 4096
		rounds  = 3000
	)
	st, err := New(Config{NumSegments: n, MagazineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]atomic.Int32, n)
	caches := make([]*Cache, workers)
	for i := range caches {
		caches[i] = st.NewCache()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := caches[w]
			id := int32(w + 1)
			v := c.View()
			var lent []int32
			lentGrain := int32(-1)
			returnLent := func() {
				if len(lent) > 0 {
					relink(v.Next, lent)
					st.ReturnLentChains(lent[0], lent[len(lent)-1], int32(len(lent)), max(lentGrain, 0))
					lent, lentGrain = lent[:0], -1
				}
			}
			for r := 0; r < rounds; r++ {
				run := make([]int32, 1+rng.Intn(MaxGrain+8))
				var got int
				if head, tail, ok := c.AllocChain(int32(len(run))); ok {
					for s := head; got < len(run); s = v.Next[s] {
						run[got] = s
						got++
					}
					if run[got-1] != tail {
						t.Errorf("AllocChain(%d) tail %d, its links end at %d", len(run), tail, run[got-1])
						return
					}
				} else {
					got = c.AllocN(run)
				}
				for _, s := range run[:got] {
					if !owner[s].CompareAndSwap(0, id) {
						t.Errorf("segment %d allocated twice (owners %d and %d)", s, owner[s].Load(), id)
						return
					}
				}
				if got == 0 {
					returnLent()
					continue
				}
				for _, s := range run[:got] {
					owner[s].Store(0)
				}
				if rng.Intn(2) == 0 {
					head, tail := chainUp(v, run[:got])
					c.FreeN(head, tail, int32(got))
				} else {
					chainUp(v, run[:got])
					c.Lend(int32(got))
					if lentGrain != -1 && lentGrain != int32(got) {
						lentGrain = 0
					} else {
						lentGrain = int32(got)
					}
					lent = append(lent, run[:got]...)
				}
				c.Publish()
				if rng.Intn(4) == 0 {
					returnLent()
				}
				if r%256 == 0 {
					c.Flush()
				}
			}
			returnLent()
			c.Flush()
		}(w)
	}
	wg.Wait()
	if st.Free() != n || st.Lent() != 0 {
		t.Fatalf("Free = %d, Lent = %d after churn, want %d and 0", st.Free(), st.Lent(), n)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants verifies the words of every chain a bin or a grain stack
// holds: AllocChain and FreeN's carve find a chain's end by them, so a
// malformed one would hand out the wrong segments.
func TestCheckInvariantsReportsMalformedChain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(v View, h int32)
		want    string
	}{
		{"run crosses the chain's end", func(v View, h int32) { v.Seg[h] = 5 << WordRun }, "starts a run of 5 with 4 segments"},
		{"start without a run", func(v View, h int32) { v.Seg[h] = 0 }, "starts a run of 0"},
		{"interior link broken", func(v View, h int32) { v.Next[h+1] = h + 3 }, "inside a run is linked to"},
		{"EOP inside the chain", func(v View, h int32) { v.Seg[h+2] |= WordEOP }, "has EOP true with 2 segments"},
		{"EOP missing at the end", func(v View, h int32) { v.Seg[h+3] &^= WordEOP }, "has EOP false with 1 segments"},
	} {
		for _, where := range []string{"cache bin", "depot stack"} {
			t.Run(tc.name+"/"+where, func(t *testing.T) {
				st, err := New(Config{NumSegments: 64, MagazineSize: 8})
				if err != nil {
					t.Fatal(err)
				}
				c := st.NewCache()
				run := make([]int32, 4)
				if c.AllocN(run) != 4 || run[3] != run[0]+3 {
					t.Fatalf("AllocN = %v, want four neighbours from a fresh store", run)
				}
				head, tail := chainUp(st.View(), run)
				c.FreeN(head, tail, 4)
				if where == "depot stack" {
					c.Flush()
				}
				c.Publish()
				if err := st.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				tc.corrupt(st.View(), head)
				err = st.CheckInvariants()
				if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("CheckInvariants = %v, want an error in the %s mentioning %q", err, where, tc.want)
				}
			})
		}
	}
}

func BenchmarkCacheAllocFree(b *testing.B) {
	st, err := New(Config{NumSegments: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	c := st.NewCache()
	run := make([]int32, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.AllocN(run) != 1 {
			b.Fatal("pool exhausted")
		}
		c.FreeN(run[0], run[0], 1)
	}
}

// TestAllocNHintsSlabEnd: with hints on, AllocN hints the allocation side's
// new head — here the slab's last segment, whose payload line is the slab's
// last — and hints nothing once the magazine is empty. The allocations
// themselves are as without hints.
func TestAllocNHintsSlabEnd(t *testing.T) {
	st, err := New(Config{NumSegments: 32, MagazineSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	c := st.NewCache()
	c.SetHints(true)
	dst := make([]int32, 1)
	for want := int32(0); want < 32; want++ {
		if c.AllocN(dst) != 1 || dst[0] != want {
			t.Fatalf("AllocN gave %d, want %d", dst[0], want)
		}
		if want == 30 && (c.mag[0].head != 31 || c.mag[0].n != 1) {
			t.Fatalf("allocation side holds %d from %d, want 1 from the slab's last segment", c.mag[0].n, c.mag[0].head)
		}
	}
	if c.AllocN(dst) != 0 {
		t.Fatal("AllocN on an empty pool delivered")
	}
	for s := int32(0); s < 32; s++ {
		c.FreeN(s, s, 1)
	}
	c.Publish()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHintNextSlabEnd: HintNext guesses that the next chain of a bin is one
// run from its head, once a size repeats. Here the guess goes wrong twice:
// a chain headed at the slab's last segment, whose guessed run passes the
// slab's end, and a chain of four runs. With hints on, neither may panic,
// and every allocation — each bin's chains, then the loose rest — is what
// the same cache hands out with hints off.
func TestHintNextSlabEnd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chains [][]int32 // freed into their bins in this order; the last freed is a bin's head
	}{
		{"past the slab's end", [][]int32{{24, 25, 26, 27, 28}, {31, 0, 1, 2, 3}}},
		{"several runs", [][]int32{{12, 13, 14, 15, 16, 17, 18}, {4, 5, 9, 10, 11, 20, 6}}},
	} {
		allocs := func(hints bool) []int32 {
			st, err := New(Config{NumSegments: 32, MagazineSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			c := st.NewCache()
			c.SetHints(hints)
			all := make([]int32, 32)
			if c.AllocN(all) != 32 {
				t.Fatalf("%s: a fresh cache could not take the whole pool", tc.name)
			}
			inChains := map[int32]bool{}
			for _, ch := range tc.chains {
				head, tail := chainUp(c.View(), ch)
				c.FreeN(head, tail, int32(len(ch)))
				for _, s := range ch {
					inChains[s] = true
				}
			}
			for _, s := range all {
				if !inChains[s] {
					free1(c, s)
				}
			}
			var got []int32
			for n := int32(0); n <= MaxGrain+1; n++ {
				c.HintNext(n) // empty bins, and sizes that have none
			}
			for range tc.chains {
				n := int32(len(tc.chains[0]))
				c.HintNext(n)
				c.HintNext(n) // the size repeats: this one hints
				head, tail, ok := c.AllocChain(n)
				if !ok {
					t.Fatalf("%s: AllocChain(%d) found no chain", tc.name, n)
				}
				got = append(got, head, tail)
			}
			rest := make([]int32, 32-len(got)/2*len(tc.chains[0]))
			if c.AllocN(rest) != len(rest) {
				t.Fatalf("%s: AllocN delivered short", tc.name)
			}
			return append(got, rest...)
		}
		if on, off := allocs(true), allocs(false); !slices.Equal(on, off) {
			t.Fatalf("%s: allocations with hints %v, without %v", tc.name, on, off)
		}
	}
}
