package segstore

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"npqm/internal/prefetch"
)

// cachePad separates the owner-hot magazine words from the cross-thread
// count mirror, and both from neighbouring heap objects (small allocations
// share cache lines within a span). 128 bytes covers the adjacent-line
// prefetcher pair; layout_test.go pins the distances.
const cachePad = 128

// MaxGrain is the longest chain a Cache keeps whole: a FreeN of g segments,
// 2 ≤ g ≤ MaxGrain, goes to bin g, and the next AllocChain of g segments
// takes it back in one piece. An MTU packet is 24 segments.
const MaxGrain = 32

// Cache is a per-owner allocation front end over a Store: two general
// magazines and one bin per chain size. The allocation side (mag[0]) is
// carved from its head; the free side (mag[1]) takes loose frees at its tail
// and becomes the allocation side when that runs dry, before the depot is
// asked, so loose segments are reused in the order they were freed. The
// free side spills whole magazines to the depot once it holds two, so
// beside its bins a cache strands up to three magazines' worth: one being
// carved and a free side of under two (just under four right after a free
// side is swapped in). A Store built with MagazineSize equal to NumSegments
// and one Cache is the paper's FIFO free list: segments leave from its head
// and return at its tail. A Cache is single-owner — the engine guards each
// shard's cache with the shard lock — so magazine manipulation is plain
// field access; only the population mirror is atomic, for Store.Free
// aggregation by other threads.
type Cache struct {
	st   *Store
	mag  [2]magazine // [0] the allocation side, [1] the free side
	tail int32       // the free side's last segment while it holds any

	binned int32 // segments across bins
	// lent is what this owner has lent (or, negative, taken back) since its
	// last Publish: a plain word settled into Store.lentSegs once per
	// critical section, beside the free-count mirror and for the same reason.
	lent   int32
	hinted int32  // the segment count of the last HintNext call
	mask   uint64 // bit g set iff bins[g] holds chains

	hints bool // AllocN and HintNext issue prefetch hints (SetHints)

	// bins[g] holds whole g-segment chains back to back, one list through
	// View.Next, for 2 ≤ g ≤ MaxGrain; bins[0] and bins[1] stay empty.
	bins [MaxGrain + 1]magazine

	_ [cachePad]byte // owner-hot words above; cross-thread mirror below

	// count mirrors the magazines' and bins' population for lock-free
	// readers. Invariant: it is exact whenever the owner is outside a
	// critical section. The owner refreshes it with Publish — once at the end
	// of each critical section, not per queue operation or per segment —
	// before any pool-wide read it makes itself inside one (FreeSegments),
	// and at magazine transfers to the depot (so a segment is never counted
	// in a cache and the depot at once). Inside a section other owners see
	// the value the section started with, give or take whole magazines.
	count atomic.Int32

	_ [cachePad]byte // keep the next heap neighbour off the mirror's line
}

type magazine struct {
	head int32 // top segment, chained through View.Next
	n    int32
}

// grainOf is the bin and depot stack a chain of n segments belongs to: n
// itself for 2 ≤ n ≤ MaxGrain, else 0, the general magazines.
func grainOf(n int32) int32 {
	if n >= 2 && n <= MaxGrain {
		return n
	}
	return 0
}

// NewCache registers and returns a new cache on the store.
func (st *Store) NewCache() *Cache {
	c := &Cache{st: st}
	c.mag[0].head, c.mag[1].head = nilSeg, nilSeg
	for g := range c.bins {
		c.bins[g].head = nilSeg
	}
	st.mu.Lock()
	old := *st.caches.Load()
	list := make([]*Cache, len(old)+1)
	copy(list, old)
	list[len(old)] = c
	st.caches.Store(&list)
	st.mu.Unlock()
	return c
}

// View returns the shared slab arrays.
func (c *Cache) View() View { return c.st.view }

// NumSegments returns the shared pool size.
func (c *Cache) NumSegments() int { return c.st.nseg }

// FreeSegments returns the pool-wide free population (depot plus every
// cache) — the occupancy signal shared-buffer policies consult. Owner
// context: the owner's own mirror is refreshed first, so what it allocated
// or freed earlier in the same critical section is counted.
func (c *Cache) FreeSegments() int {
	c.Publish()
	return c.st.Free()
}

// held is the owner's exact population: magazines plus bins.
func (c *Cache) held() int32 { return c.mag[0].n + c.mag[1].n + c.binned }

// Avail returns the segments this owner can actually allocate right now:
// its own magazines and bins plus the depot. Segments cached by other
// owners are free pool-wide but unreachable until those owners flush.
func (c *Cache) Avail() int { return int(c.held()) + c.st.depotCount() }

// Cached returns this cache's published population — the free segments
// other owners cannot reach until Flush. Lock-free, safe from any goroutine.
func (c *Cache) Cached() int { return int(c.count.Load()) }

// Lend moves n segments between the owner's books and the lent population:
// a positive n marks segments checked out to a zero-copy view or
// reservation, a negative n takes them back (a writer committing its
// reserved run). Owner context only, like AllocN; the lent chains
// themselves come back through ReturnLent. The delta settles into the
// pool's count once per critical section (Publish), so the owner's own Lent
// settles first and is always exact, a cross-thread Store.Lent is exact
// whenever owners are outside critical sections, and it is never negative
// as long as every ReturnLent follows the section that lent.
func (c *Cache) Lend(n int32) { c.lent += n }

// ReturnLent hands a lent chain of n segments (head→…→tail through
// View.Next; Next[tail] is overwritten) straight to the depot and debits
// the lent population — safe from any goroutine, because views are
// released wherever the consumer finishes. It bypasses this single-owner cache entirely, so on a one-cache
// store a lent chain rejoins the free list through the depot, after the
// free side: FIFO reuse holds for FreeN's frees only. It is
// Store.ReturnLentChains of one chain, whose grain is its length.
func (c *Cache) ReturnLent(head, tail, n int32) { c.st.ReturnLentChains(head, tail, n, n) }

// ReturnLentChains is ReturnLent for a batch of whole grain-segment chains
// (see Store.ReturnLentChains). Safe from any goroutine.
func (c *Cache) ReturnLentChains(head, tail, n, grain int32) {
	c.st.ReturnLentChains(head, tail, n, grain)
}

// Lent returns the pool-wide lent population, this owner's own lending
// settled first (owner context, like FreeSegments).
func (c *Cache) Lent() int {
	c.Publish()
	return c.st.Lent()
}

// AllocN fills dst with segments carved from the general magazines and
// returns how many it delivered — short only when the cache and depot
// together run dry. It carves a magazine at a time: the inner loop walks the
// chain with plain pointer reads, and at most one depot CAS is paid per
// magazine crossed. Whole chains are AllocChain's business; AllocN reaches
// them only when nothing else is left (refill), and breaks them.
func (c *Cache) AllocN(dst []int32) int {
	n := int32(len(dst))
	got := int32(0)
	for got < n {
		if c.mag[0].n == 0 && !c.refill() {
			break
		}
		m := &c.mag[0]
		take := min(n-got, m.n)
		m.head = c.walk(dst[got:got+take], m.head)
		m.n -= take
		got += take
	}
	if m := &c.mag[0]; c.hints && m.n > 0 {
		c.hint(m.head)
	}
	return int(got)
}

// SetHints turns AllocN's and HintNext's prefetch hints on or off (off in a
// new cache). They pay off when the segments were freed on another core,
// and cost a little on one goroutine, where they are in its own cache.
func (c *Cache) SetHints(on bool) { c.hints = on }

// hint starts loading the lines of segment s, the next one AllocN hands
// out (see package prefetch): its link and word, and its first payload
// line. The previous owner of those lines is usually the core that
// freed s. HintNext is its counterpart for AllocChain.
func (c *Cache) hint(s int32) {
	v := &c.st.view
	lines := [3]unsafe.Pointer{
		unsafe.Pointer(&v.Next[s]), unsafe.Pointer(&v.Seg[s]), unsafe.Pointer(&v.Data[int(s)*SegmentBytes]),
	}
	prefetch.Hint(lines[:])
}

// HintNext hints the chain the next AllocChain(n) takes, bin n's head, when
// hints are on (SetHints) and n repeats the previous call's: only a stream
// of one size bears out the guess that the next reservation is this size.
// It inlines, so a commit that hints nothing pays no call.
func (c *Cache) HintNext(n int32) {
	prev := c.hinted
	c.hinted = n
	if c.hints && n == prev {
		c.hintChain(n)
	}
}

// hintChain hints the head's and tail's link and word of bin n's head
// chain, which AllocChain and its packet rewrite, and each segment's first
// payload line, guessing the chain is one run (as one carved ascending and
// freed whole usually is) cut at the slab's end: a wrong guess wastes hints.
func (c *Cache) hintChain(n int32) {
	g := grainOf(n)
	if c.bins[g].n == 0 { // bins[0] stays empty
		return
	}
	v := &c.st.view
	h := c.bins[g].head
	last := h + min(g, int32(c.st.nseg)-h) - 1
	lines := [4 + MaxGrain]unsafe.Pointer{
		unsafe.Pointer(&v.Next[h]), unsafe.Pointer(&v.Seg[h]),
		unsafe.Pointer(&v.Next[last]), unsafe.Pointer(&v.Seg[last]),
	}
	k := 4
	for s := h; s <= last; s++ {
		lines[k] = unsafe.Pointer(&v.Data[int(s)*SegmentBytes])
		k++
	}
	prefetch.Hint(lines[:k])
}

// AllocChain takes the first whole n-segment chain off bin n, refilling the
// bin from the depot's stack of grain n, and returns it as it stands: linked
// head→…→tail (Next[tail] is unspecified) and well formed by the words of
// its last life, so a packet of n segments built on it rewrites its words
// per run, not per segment. The tail is found by hopping the chain's runs.
// ok is false when n is not a grain (2…MaxGrain) or neither the bin nor the
// stack holds a chain; the caller then carves with AllocN.
func (c *Cache) AllocChain(n int32) (head, tail int32, ok bool) {
	g := grainOf(n)
	if g == 0 || c.bins[g].n == 0 && !c.fillBin(g) {
		return nilSeg, nilSeg, false
	}
	b := &c.bins[g]
	head = b.head
	tail, b.head = chainEnd(&c.st.view, head, g)
	b.n -= g
	c.binned -= g
	if b.n == 0 {
		c.mask &^= 1 << g
	}
	return head, tail, true
}

// walk fills dst with the chain from s on and returns the segment after it.
func (c *Cache) walk(dst []int32, s int32) int32 {
	next := c.st.view.Next
	for i := range dst {
		dst[i] = s
		s = next[s]
	}
	return s
}

// fillBin refills the empty bin g with a magazine of grain g from the depot.
func (c *Cache) fillBin(g int32) bool {
	if c.st.grains.Load()&(1<<g) == 0 {
		return false
	}
	head, n, ok := c.st.popMagazine(g)
	if !ok {
		c.st.clearGrain(g)
		return false
	}
	c.bins[g] = magazine{head, n}
	c.binned += n
	c.mask |= 1 << g
	return true
}

// refill makes the empty allocation side non-empty: it swaps in the free
// side or pulls a general magazine from the depot (one CAS). Only when both
// are dry does it break whole chains: this cache's largest bin becomes the
// allocation side, or else a magazine of any grain from the depot. False
// means the cache and the depot hold nothing at all.
func (c *Cache) refill() bool {
	if c.mag[1].n > 0 {
		c.mag[0], c.mag[1] = c.mag[1], c.mag[0]
		return true
	}
	head, n, ok := c.st.popMagazine(0)
	if !ok && c.mask != 0 {
		g := int32(bits.Len64(c.mask) - 1)
		head, n, ok = c.bins[g].head, c.bins[g].n, true
		c.bins[g] = magazine{head: nilSeg}
		c.binned -= n
		c.mask &^= 1 << g
	}
	if !ok {
		head, n, ok = c.st.popGrained()
	}
	if ok {
		c.mag[0] = magazine{head, n}
	}
	return ok
}

// FreeN splices a pre-linked chain of n segments (head→…→tail through
// View.Next; Next[tail] is overwritten) in O(1): onto the front of bin n
// when n is a grain, else at the tail of the free side. A chain bound for a
// bin must be well formed by its words (see WordLen). Either may grow past
// a nominal magazine; once it holds two magazines' worth, whole magazines
// (of whole chains, for a bin) are carved off its front and pushed to the
// depot — one cut and one CAS per magazine of frees, and a steady
// alloc-run/free-run cycle (the datapath's dequeue feeding the next
// enqueue) never touches the depot at all.
func (c *Cache) FreeN(head, tail, n int32) {
	if n <= 0 {
		return
	}
	next := c.st.view.Next
	g := grainOf(n)
	m := &c.mag[1]
	if g != 0 {
		m = &c.bins[g]
		c.binned += n
		c.mask |= 1 << g
		next[tail] = m.head
		m.head = head
	} else {
		next[tail] = nilSeg
		if m.n == 0 {
			m.head = head
		} else {
			next[c.tail] = head
		}
		c.tail = tail
	}
	m.n += n
	for per := c.st.magSegs[g]; m.n >= 2*per; {
		h := m.head
		m.head = c.cut(h, per, g)
		m.n -= per
		if g != 0 {
			c.binned -= per
		}
		// Publish the shrunken population before the push so the departing
		// magazine is never counted in the cache and the depot at once.
		c.count.Store(c.held())
		c.st.pushMagazine(h, per, g)
	}
}

// cut ends a magazine of per segments at h, the front of a chain of whole
// grain-segment chains (grain 0: loose segments), and returns the segment
// after it. A general magazine is cut by walking its links, a
// grained one by hopping its chains' runs.
func (c *Cache) cut(h, per, grain int32) int32 {
	v := &c.st.view
	s, after := h, h
	if grain == 0 {
		for i := int32(1); i < per; i++ {
			s = v.Next[s]
		}
		after = v.Next[s]
	} else {
		for k := per / grain; k > 0; k-- {
			s, after = chainEnd(v, after, grain)
		}
	}
	v.Next[s] = nilSeg
	return after
}

// Publish refreshes the cache's lock-free population mirror and settles its
// lent delta. The owner calls it when it leaves a critical section (see
// count), so pool-wide occupancy reads by other owners are exact at section
// granularity while queue operations stay free of atomics. A mirror that is
// already exact is left alone: the store is a full barrier, and a section
// that allocated, freed and lent nothing pays one load instead.
func (c *Cache) Publish() {
	if n := c.held(); c.count.Load() != n {
		c.count.Store(n)
	}
	if c.lent != 0 {
		c.st.lentSegs.Add(int64(c.lent))
		c.lent = 0
	}
}

// Flush pushes both sides (full or partial) and every bin, each to its
// grain's stack, back to the depot so other owners can allocate them — used
// after push-out eviction frees segments on a different shard than the
// arrival that needs them.
func (c *Cache) Flush() {
	c.count.Store(0)
	for i, m := range c.mag {
		if m.n > 0 {
			c.st.pushMagazine(m.head, m.n, 0)
		}
		c.mag[i] = magazine{head: nilSeg}
	}
	for ; c.mask != 0; c.mask &= c.mask - 1 {
		g := int32(bits.TrailingZeros64(c.mask))
		c.st.pushMagazine(c.bins[g].head, c.bins[g].n, g)
		c.bins[g] = magazine{head: nilSeg}
	}
	c.binned = 0
}

// CheckInvariants validates this cache's magazines and bins (chain lengths,
// grains, counter mirror). The global walk lives on Store.CheckInvariants.
func (c *Cache) CheckInvariants() error {
	return (&checker{st: c.st, seen: make([]bool, c.st.nseg)}).cache(0, c)
}
