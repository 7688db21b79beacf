package segstore

import (
	"strings"
	"testing"
)

// Tests for the bulk alloc/free path: AllocN runs carved across magazine
// boundaries, short returns on a dry pool, FreeN spilling whole magazines
// back to the depot, and FIFO preservation on a one-magazine pool.

// relink links the segments of run into one chain in order, returning head
// and tail. It leaves their words alone: a batch of chains that chainUp
// already built is relinked end to end this way.
func relink(next []int32, run []int32) (head, tail int32) {
	for i := 0; i < len(run)-1; i++ {
		next[run[i]] = run[i+1]
	}
	return run[0], run[len(run)-1]
}

// chainUp builds run into the well-formed chain the queue layer hands back
// for a packet: linked in order, each address-contiguous stretch (at most
// MaxRun segments) one run marked on its first word, EOP on the last
// segment. Every test chain bound for FreeN or ReturnLent goes through it,
// since a bin or grain stack trusts the words of the chains it holds.
// Lengths are left out: the store reads none.
func chainUp(v View, run []int32) (head, tail int32) {
	relink(v.Next, run)
	for i := 0; i < len(run); {
		j := i + 1
		for j < len(run) && run[j] == run[j-1]+1 && j-i < MaxRun {
			j++
		}
		for _, s := range run[i+1 : j] {
			v.Seg[s] = 0
		}
		v.Seg[run[i]] = uint16(j-i) << WordRun
		i = j
	}
	v.Seg[run[len(run)-1]] |= WordEOP
	return run[0], run[len(run)-1]
}

// alloc1 takes one segment through AllocN, as the queue's single-segment
// commands do; ok is false on a dry pool.
func alloc1(c *Cache) (int32, bool) {
	var s [1]int32
	ok := c.AllocN(s[:]) == 1
	return s[0], ok
}

// free1 returns one segment through FreeN.
func free1(c *Cache, s int32) { c.FreeN(s, s, 1) }

// fifoPool is the paper's FIFO free list: a Store of n segments in one
// magazine under its only cache.
func fifoPool(t *testing.T, n int) (*Store, *Cache) {
	t.Helper()
	st, err := New(Config{NumSegments: n, MagazineSize: n})
	if err != nil {
		t.Fatal(err)
	}
	return st, st.NewCache()
}

func TestCacheAllocNShortOnDryPool(t *testing.T) {
	const n = 40
	st, err := New(Config{NumSegments: n, MagazineSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := st.NewCache()
	dst := make([]int32, 64)
	got := c.AllocN(dst)
	if got != n {
		t.Fatalf("AllocN on a %d-segment pool delivered %d, want the whole pool", n, got)
	}
	seen := make([]bool, n)
	for _, s := range dst[:got] {
		if s < 0 || int(s) >= n || seen[s] {
			t.Fatalf("AllocN delivered invalid or duplicate segment %d", s)
		}
		seen[s] = true
	}
	if st.Free() != 0 {
		t.Fatalf("Free = %d after draining the pool, want 0", st.Free())
	}
	if extra := c.AllocN(dst[:4]); extra != 0 {
		t.Fatalf("AllocN on a dry pool delivered %d segments", extra)
	}
	head, tail := chainUp(c.View(), dst[:got])
	c.FreeN(head, tail, int32(got))
	c.Publish()
	if st.Free() != n {
		t.Fatalf("Free = %d after FreeN, want %d", st.Free(), n)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A FreeN longer than two magazines must carve nominal-size magazines off
// the front and push them to the depot, leaving the free side below the
// spill threshold and the pool count exact.
func TestCacheFreeNSpillsAcrossMagazines(t *testing.T) {
	const (
		n   = 64
		mag = 8
	)
	st, err := New(Config{NumSegments: n, MagazineSize: mag})
	if err != nil {
		t.Fatal(err)
	}
	c := st.NewCache()
	run := make([]int32, 33) // 4 whole magazines plus one
	if got := c.AllocN(run); got != len(run) {
		t.Fatalf("AllocN = %d, want %d", got, len(run))
	}
	c.Publish()
	head, tail := chainUp(c.View(), run)
	c.FreeN(head, tail, int32(len(run)))
	c.Publish()
	if st.Free() != n {
		t.Fatalf("Free = %d after bulk free, want %d", st.Free(), n)
	}
	// The spill loop must have stopped with the free side below two
	// magazines' worth.
	if held := c.mag[1].n; held >= 2*mag {
		t.Fatalf("free side still holds %d segments, spill threshold is %d", held, 2*mag)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A tail pointer that is not the free side's last segment is reported.
	tail = c.tail
	c.tail = c.mag[1].head
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "free side ends at") {
		t.Fatalf("CheckInvariants with a stale free-side tail = %v", err)
	}
	c.tail = tail
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spilled magazines must be allocatable again — drain the whole pool.
	all := make([]int32, n)
	if got := c.AllocN(all); got != n {
		t.Fatalf("re-AllocN = %d, want %d", got, n)
	}
	head, tail = chainUp(c.View(), all)
	c.FreeN(head, tail, int32(n))
	c.Publish()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Randomized alloc-run/free-run churn: a steady mix of run sizes above and
// below the magazine size must conserve the pool exactly.
func TestCacheBulkChurnConserves(t *testing.T) {
	const n = 128
	st, err := New(Config{NumSegments: n, MagazineSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := st.NewCache()
	var held [][]int32
	heldSegs := 0
	rand := uint32(1)
	for i := 0; i < 5000; i++ {
		rand = rand*1664525 + 1013904223
		if rand&1 == 0 || heldSegs == n {
			if len(held) == 0 {
				continue
			}
			run := held[len(held)-1]
			held = held[:len(held)-1]
			head, tail := chainUp(c.View(), run)
			c.FreeN(head, tail, int32(len(run)))
			heldSegs -= len(run)
		} else {
			want := 1 + int(rand>>8)%24
			run := make([]int32, want)
			got := c.AllocN(run)
			if free := n - heldSegs; got != min(want, free) {
				t.Fatalf("iter %d: AllocN(%d) = %d with %d free", i, want, got, free)
			}
			if got > 0 {
				held = append(held, run[:got])
				heldSegs += got
			}
		}
		c.Publish()
		if st.Free() != n-heldSegs {
			t.Fatalf("iter %d: Free = %d, want %d", i, st.Free(), n-heldSegs)
		}
	}
	for _, run := range held {
		head, tail := chainUp(c.View(), run)
		c.FreeN(head, tail, int32(len(run)))
	}
	c.Publish()
	if st.Free() != n {
		t.Fatalf("Free = %d after returning everything, want %d", st.Free(), n)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A one-magazine pool promises FIFO reuse (the DDR bank-striping property);
// the bulk entry points must preserve it exactly. Only loose chains join the
// free list's tail — one segment, or more than MaxGrain — so the returned
// run is longer than any bin's grain.
func TestPrivateBulkFIFO(t *testing.T) {
	const n, k = 48, MaxGrain + 8
	st, p := fifoPool(t, n)
	run := make([]int32, k)
	if got := p.AllocN(run); got != len(run) {
		t.Fatalf("AllocN = %d, want %d", got, len(run))
	}
	for i, s := range run {
		if s != int32(i) {
			t.Fatalf("run[%d] = %d, want FIFO order", i, s)
		}
	}
	head, tail := chainUp(p.View(), run)
	p.FreeN(head, tail, int32(len(run)))
	// The free list is now k..n-1, then the returned 0..k-1.
	for want := int32(k); want < n; want++ {
		if s, ok := alloc1(p); !ok || s != want {
			t.Fatalf("Alloc = (%d, %v), want (%d, true)", s, ok, want)
		}
	}
	free1(p, n-1) // joins behind the returned run
	got := make([]int32, k+1)
	if m := p.AllocN(got); m != k+1 {
		t.Fatalf("AllocN = %d, want %d", m, k+1)
	}
	for i, s := range got {
		want := int32(i)
		if i == k {
			want = n - 1
		}
		if s != want {
			t.Fatalf("recycled run[%d] = %d, want %d", i, s, want)
		}
	}
	// Short return drains to exactly nothing and the pool stays coherent.
	if p.FreeSegments() != 0 {
		t.Fatalf("FreeSegments = %d, want 0", p.FreeSegments())
	}
	if m := p.AllocN(make([]int32, 4)); m != 0 {
		t.Fatalf("AllocN on empty pool = %d", m)
	}
	for s := int32(0); s < n; s++ {
		free1(p, s)
	}
	p.Publish()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
