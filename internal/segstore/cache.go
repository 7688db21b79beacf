package segstore

import "sync/atomic"

// cachePad separates the owner-hot magazine words from the cross-thread
// count mirror, and both from neighbouring heap objects (small allocations
// share cache lines within a span). 128 bytes covers the adjacent-line
// prefetcher pair; layout_test.go pins the distances.
const cachePad = 128

// Cache is a per-owner allocation front end over a shared Store: two
// magazines (an active one and a spare) refilled from and flushed to the
// depot a whole magazine at a time. A Cache is single-owner — the engine
// guards each shard's cache with the shard lock — so magazine manipulation
// is plain field access; only the population mirror is atomic, for
// Store.Free aggregation by other threads.
type Cache struct {
	st  *Store
	mag [2]magazine // [0] is the active magazine

	// lent is what this owner has lent (or, negative, taken back) since its
	// last Publish: a plain word settled into Store.lentSegs once per
	// critical section, beside the free-count mirror and for the same reason.
	lent int32

	_ [cachePad]byte // owner-hot words above; cross-thread mirror below

	// count mirrors mag[0].n + mag[1].n for lock-free readers. Invariant:
	// it is exact whenever the owner is outside a critical section. The
	// owner refreshes it with Publish — once at the end of each critical
	// section, not per queue operation or per segment — before any
	// pool-wide read it makes itself inside one (FreeSegments), and at
	// magazine transfers to the depot (so a segment is never counted in a
	// cache and the depot at once). Inside a section other owners see the
	// value the section started with, give or take whole magazines.
	count atomic.Int32

	_ [cachePad]byte // keep the next heap neighbour off the mirror's line
}

type magazine struct {
	head int32 // top segment, chained through View.Next
	n    int32
}

// NewCache registers and returns a new cache on the store.
func (st *Store) NewCache() *Cache {
	c := &Cache{st: st}
	c.mag[0].head, c.mag[1].head = nilSeg, nilSeg
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

// Avail returns the segments this owner can actually allocate right now:
// its own magazines plus the depot. Segments cached by other owners are
// free pool-wide but unreachable until those owners flush.
func (c *Cache) Avail() int {
	return int(c.mag[0].n+c.mag[1].n) + c.st.depotCount()
}

// Cached returns this cache's published population — the free segments
// other owners cannot reach until Flush. Lock-free, safe from any goroutine.
func (c *Cache) Cached() int { return int(c.count.Load()) }

// Shared reports that other caches draw from the same pool.
func (c *Cache) Shared() bool { return true }

// Lend adjusts the shared pool's lent population (owner context); Publish
// settles it.
func (c *Cache) Lend(n int32) { c.lent += n }

// ReturnLent hands a lent chain straight to the shared depot — safe from
// any goroutine, bypassing this single-owner cache entirely.
func (c *Cache) ReturnLent(head, tail, n int32) { c.st.ReturnLent(head, tail, n) }

// Lent returns the pool-wide lent population, this owner's own lending
// settled first (owner context, like FreeSegments).
func (c *Cache) Lent() int {
	c.Publish()
	return c.st.Lent()
}

// Alloc takes one segment from the active magazine, swapping in the spare
// or pulling a fresh magazine from the depot (one CAS) when it runs dry.
func (c *Cache) Alloc() (int32, bool) {
	m := &c.mag[0]
	if m.n == 0 {
		if c.mag[1].n > 0 {
			c.mag[0], c.mag[1] = c.mag[1], c.mag[0]
		} else {
			head, n, ok := c.st.popMagazine()
			if !ok {
				return 0, false
			}
			m.head, m.n = head, n
		}
	}
	s := m.head
	m.head = c.st.view.Next[s]
	m.n--
	return s, true
}

// AllocN fills dst with segments and returns how many it delivered — short
// only when the cache and depot together run dry. Runs are carved a whole
// magazine at a time: the inner loop walks the magazine chain with plain
// pointer reads, so a multi-segment packet costs one AllocN instead of one
// Alloc (function call, dryness check) per segment, and at most one depot
// CAS per magazine crossed.
func (c *Cache) AllocN(dst []int32) int {
	next := c.st.view.Next
	got := 0
	for got < len(dst) {
		m := &c.mag[0]
		if m.n == 0 {
			if c.mag[1].n > 0 {
				c.mag[0], c.mag[1] = c.mag[1], c.mag[0]
			} else {
				head, n, ok := c.st.popMagazine()
				if !ok {
					return got
				}
				m.head, m.n = head, n
			}
		}
		take := int32(len(dst) - got)
		if take > m.n {
			take = m.n
		}
		s := m.head
		for i := int32(0); i < take; i++ {
			dst[got] = s
			got++
			s = next[s]
		}
		m.head = s
		m.n -= take
	}
	return got
}

// Free returns one segment to the active magazine. When both magazines are
// full the spare is pushed to the depot (one CAS), so a sustained
// free-heavy phase costs one CAS per magazine of frees.
func (c *Cache) Free(s int32) {
	if c.mag[0].n >= c.st.magSize {
		if c.mag[1].n >= c.st.magSize {
			spare := c.mag[1]
			c.mag[1] = magazine{head: nilSeg}
			c.count.Store(c.mag[0].n)
			c.st.pushMagazine(spare.head, spare.n)
		}
		c.mag[0], c.mag[1] = c.mag[1], c.mag[0]
	}
	m := &c.mag[0]
	c.st.view.Next[s] = m.head
	m.head = s
	m.n++
}

// FreeN splices a pre-linked chain of n segments (head→…→tail through
// View.Next; Next[tail] is overwritten) onto the active magazine in O(1),
// the bulk analogue of Free. The active magazine is allowed to grow past the
// nominal magazine size; once it holds two magazines' worth, nominal-size
// magazines are carved off its front and pushed to the depot — one chain
// walk and one CAS per magazine of frees, and a steady alloc-run/free-run
// cycle (the datapath's dequeue feeding the next enqueue) never touches the
// depot at all.
func (c *Cache) FreeN(head, tail, n int32) {
	if n <= 0 {
		return
	}
	next := c.st.view.Next
	m := &c.mag[0]
	next[tail] = m.head
	m.head = head
	m.n += n
	for m.n >= 2*c.st.magSize {
		s := m.head
		for i := int32(1); i < c.st.magSize; i++ {
			s = next[s]
		}
		h := m.head
		m.head = next[s]
		next[s] = nilSeg
		m.n -= c.st.magSize
		// Publish the shrunken population before the push so the departing
		// magazine is never counted in the cache and the depot at once.
		c.count.Store(m.n + c.mag[1].n)
		c.st.pushMagazine(h, c.st.magSize)
	}
}

// Publish refreshes the cache's lock-free population mirror and settles its
// lent delta. The owner calls it when it leaves a critical section (see
// count), so pool-wide occupancy reads by other owners are exact at section
// granularity while queue operations and the per-segment path stay free of
// atomics. A mirror that is already exact is left alone: the store is a full
// barrier, and a section that allocated, freed and lent nothing pays one
// load instead.
func (c *Cache) Publish() {
	if n := c.mag[0].n + c.mag[1].n; c.count.Load() != n {
		c.count.Store(n)
	}
	if c.lent != 0 {
		c.st.lentSegs.Add(int64(c.lent))
		c.lent = 0
	}
}

// Flush pushes both magazines (full or partial) back to the depot so other
// owners can allocate them — used after push-out eviction frees segments on
// a different shard than the arrival that needs them.
func (c *Cache) Flush() {
	mags := c.mag
	c.mag[0] = magazine{head: nilSeg}
	c.mag[1] = magazine{head: nilSeg}
	c.count.Store(0)
	for _, m := range mags {
		if m.n > 0 {
			c.st.pushMagazine(m.head, m.n)
		}
	}
}

// CheckInvariants validates this cache's magazines (chain lengths, states,
// counter mirror). The global walk lives on Store.CheckInvariants.
func (c *Cache) CheckInvariants() error {
	seen := make(map[int32]bool, c.mag[0].n+c.mag[1].n)
	total := int32(0)
	for i := range c.mag {
		s := c.mag[i].head
		for k := int32(0); k < c.mag[i].n; k++ {
			if s < 0 || int(s) >= c.st.nseg {
				return errChain("cache magazine", i, s)
			}
			if seen[s] {
				return errDup("cache magazine", s)
			}
			seen[s] = true
			if c.st.view.State[s] != StateFree {
				return errState("cache magazine", s, c.st.view.State[s])
			}
			s = c.st.view.Next[s]
		}
		if s != nilSeg {
			return errChain("cache magazine", i, s)
		}
		total += c.mag[i].n
	}
	if got := c.count.Load(); got != total {
		return errCount("cache", int(total), int(got))
	}
	return nil
}
