// Package segstore is the segment-memory layer under every queue manager:
// one slab holding every segment's payload and link words, a lock-free
// global free-list, and per-owner magazine caches.
//
// The paper's queue manager is built around a single shared data memory —
// all per-flow queues allocate 64-byte segments from one pool, and the free
// list is the central hot structure (Sections 2-3). The shared-memory
// admission analyses the policy layer implements (LQD's 1.5-competitiveness,
// shared-buffer RED) are likewise stated for one global buffer. This package
// gives the sharded software engine that same single buffer without a
// global lock:
//
//   - Store: the slab (link and segment-word arrays plus the payload
//     memory, SegmentBytes per segment, in every store: the timed models'
//     too) and the depot, one Treiber stack of segment magazines per
//     grain: general magazines, and for each chain size g from 2 to MaxGrain
//     magazines of whole g-segment chains. Each stack head packs a 32-bit
//     version tag beside the top-magazine index so a compare-and-swap cannot
//     succeed across an ABA reuse of the same magazine head.
//   - Cache: a per-owner (per-shard) pair of general magazines, one carved
//     for allocation and one taking frees at its tail, refilled and flushed
//     from the depot MagazineSegments at a time, so the steady-state
//     cost of the shared pool is one CAS per ~64 allocations instead of one
//     per segment — the software analogue of the paper's free-list working
//     in hardware line bursts — and one bin per chain size: a chain of g
//     segments freed whole is handed out whole, links and run words as they
//     stand, to the next request for g (AllocChain), so a packet's
//     address-contiguous runs survive its reuse. Runs never merge; chains
//     are reused whole, and broken only when nothing else is left.
//
// The paper's own free list is one configuration of the same two types: a
// Store whose one magazine is the whole pool (MagazineSize = NumSegments)
// under a single Cache hands loose segments out from the head and takes
// them back at the tail, never touching the depot in between. The timed
// models (MMS, DDR) depend on that FIFO order: it cycles segment reuse
// through the whole pool, striping the data memory across DDR banks.
//
// Magazine chains are threaded through the slab's Next array (a free
// segment's link word is otherwise unused); depot links between magazine
// heads live in a dedicated array accessed only with atomics, because a
// stale popper may read a head's depot link concurrently with its re-push.
package segstore

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// SegmentBytes is the payload size of every segment: the paper's 64-byte
// data-memory unit. Every store's slab (View.Data) holds SegmentBytes per
// segment, and the modules above it cut packets at this size.
const SegmentBytes = 64

// A segment word's length field must count a full segment.
const _ uint = WordLen - SegmentBytes

// MagazineSegments is the default magazine size: the number of segments
// that move between a Cache and the depot per CAS.
const MagazineSegments = 64

// nilSeg is the null segment link.
const nilSeg = int32(-1)

// View exposes the slab's per-segment arrays. Every Manager sharing a Store
// operates on these same slices; owners touch only the segments they hold,
// so the arrays need no locking of their own.
//
// Like the paper's pointer memory, a segment carries its link and its word
// and no lifecycle state: whether it is free, queued or lent is where it
// is, not what it says. CheckInvariants derives it: the free walk
// (Store.CheckMarking) and every queue walk mark the segments they meet in
// one array, a segment met twice is an error, and the segments no walk
// meets must be exactly the lent books (Store.CheckLent).
type View struct {
	Next []int32 // link words (queue chains, free chains)
	// Seg holds one word per segment (see WordLen for the layout). A loose
	// free segment's word, like its link, is unspecified: whoever allocates
	// it writes it. A chain kept whole in a bin or on a grain stack is well
	// formed by its words, and Cache.AllocChain hands it out as it stands.
	Seg  []uint16
	Refs []int32 // view refcount per lent chain head (atomic access only)
	Data []byte  // payload slab, SegmentBytes per segment
}

// Segment word layout (View.Seg). Every chain is a list of
// address-contiguous runs: the word of a run's first segment carries the
// run's length r (a lone segment is a run of one, LoneWord), and the r-1
// segments before the run's last are full, non-EOP and linked s -> s+1; a
// packet walk never reads their words. Only the run's last segment has a
// length, an EOP flag and a link of its own. The queue layer records the
// runs when it builds a packet's chain and only ever splits one, never
// merges; a chain reused whole (Cache.AllocChain) keeps them.
//
// A chain is well formed when its runs add up to its length and only its
// last segment carries EOP. Every chain in a bin or on a grain stack is:
// the store finds where one ends by hopping its runs (Hop), and
// Store.CheckInvariants verifies it.
const (
	WordLen  = 0x007f       // payload length, 0..segment size
	WordEOP  = 0x0080       // end-of-packet marker
	WordRun  = 8            // shift of the run length, meaningful at a run start
	MaxRun   = 255          // longest run one word can record
	LoneWord = 1 << WordRun // a run of one
)

// Hop steps over the run that starts at s in the chain threaded through seg
// and next: it returns the run's last segment, that segment's word and its
// link. The branch is deliberate. A lone segment is its own last, and on
// that arm the word and the link both load from s alone, so a fragmented
// chain is chased exactly like a plain linked list; only a real run pays
// the dependent load behind s + r - 1.
func Hop(seg []uint16, next []int32, s int32) (last int32, w uint16, link int32) {
	w = seg[s]
	if r := int32(w >> WordRun); r > 1 {
		last = s + r - 1
		return last, seg[last], next[last]
	}
	return s, w, next[s]
}

// chainEnd hops the runs of the well-formed n-segment chain from s and
// returns its tail and the tail's link.
func chainEnd(v *View, s, n int32) (tail, after int32) {
	for {
		last, _, next := Hop(v.Seg, v.Next, s)
		if n -= last - s + 1; n <= 0 {
			return last, next
		}
		s = next
	}
}

// Config sizes a Store.
type Config struct {
	// NumSegments is the pool size (required, > 0).
	NumSegments int
	// SegmentBytes is ignored: every segment holds the package's
	// SegmentBytes.
	//
	// Deprecated: bench shim.
	SegmentBytes int
	// StoreData is ignored: every store allocates its payload slab.
	//
	// Deprecated: bench shim.
	StoreData bool
	// MagazineSize overrides the segments per magazine (0 means
	// MagazineSegments). Small pools shared by many caches want smaller
	// magazines, or most of the pool strands in the first caches to touch
	// the depot; a pool with one cache and MagazineSize = NumSegments is a
	// single FIFO free list.
	MagazineSize int
}

func (c Config) validate() error {
	if c.NumSegments <= 0 {
		return fmt.Errorf("segstore: NumSegments must be positive, got %d", c.NumSegments)
	}
	if c.MagazineSize < 0 {
		return fmt.Errorf("segstore: negative MagazineSize %d", c.MagazineSize)
	}
	return nil
}

func newView(cfg Config) View {
	return View{
		Next: make([]int32, cfg.NumSegments),
		Seg:  make([]uint16, cfg.NumSegments),
		Refs: make([]int32, cfg.NumSegments),
		Data: make([]byte, cfg.NumSegments*SegmentBytes),
	}
}

// Store is the shared slab plus the lock-free depot. All methods are safe
// for concurrent use; per-owner allocation goes through Cache.
type Store struct {
	view    View
	nseg    int
	magSize int32
	// magSegs[g] is the segment count of a magazine of grain g: magSize for
	// general magazines (g = 0), else as many whole g-segment chains as fit
	// in magSize, at least one.
	magSegs [MaxGrain + 1]int32

	// depotFree packs the depot's segment count (low 32 bits) under a
	// change sequence (high 32): every count change bumps the sequence, so
	// Free can tell that no magazine moved while it summed the cache
	// mirrors. A push counts its magazine before the publishing CAS and a
	// pop discounts it after the claiming CAS, so the count never runs below
	// the depot's true population (and a subtraction never borrows).
	depotFree atomic.Uint64
	lentSegs  atomic.Int64 // segments checked out as views or reservations
	// grains has bit g set while depot[g] may hold magazines: a push sets it
	// after its CAS unless it is already set, and a pop that finds the stack
	// empty clears it, then sets it again if the stack filled meanwhile
	// (clearGrain) — so once a push has returned, its stack's bit is set
	// until the stack is seen empty. A dry cache reads one word, not 31
	// stacks.
	grains atomic.Uint64

	// depot[g] is the head of the Treiber stack of magazines of grain g:
	// depot[0] holds general magazines, depot[g] for 2 ≤ g ≤ MaxGrain whole
	// g-segment chains. Each head packs (top magazine head + 1) in the high
	// 32 bits and a version tag in the low 32. Index 0 in the high half means
	// empty, so a nil head and segment 0 cannot collide; the tag advances on
	// every successful push or pop, making the CAS ABA-safe. Every push and
	// pop also moves depotFree, so the general head shares its line.
	depot [MaxGrain + 1]atomic.Uint64

	// dnext[h] links magazine head h to the next magazine head below it, in
	// whichever stack h is on. Accessed only with atomics: a popper that
	// loaded a stale top still reads dnext[top] before its CAS fails, racing
	// with the owner pushing that head back.
	dnext []int32
	// dcount[h] is the population of the magazine headed by h. Written by
	// the owner before the publishing CAS and read after a claiming CAS, so
	// plain access is ordered through the stack head.
	dcount []int32

	// caches registers every Cache for FreeSegments aggregation;
	// copy-on-write so readers never lock.
	caches atomic.Pointer[[]*Cache]
	mu     sync.Mutex // serializes NewCache registrations
}

// New builds a Store with every segment in general depot magazines.
func New(cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mag := cfg.MagazineSize
	if mag == 0 {
		mag = MagazineSegments
	}
	st := &Store{
		view:    newView(cfg),
		nseg:    cfg.NumSegments,
		magSize: int32(mag),
		dnext:   make([]int32, cfg.NumSegments),
		dcount:  make([]int32, cfg.NumSegments),
	}
	st.magSegs[0] = int32(mag)
	for g := int32(2); g <= MaxGrain; g++ {
		st.magSegs[g] = max(int32(mag)/g, 1) * g
	}
	empty := make([]*Cache, 0)
	st.caches.Store(&empty)
	// Carve the pool into stretches of four magazines and stack them. Chains
	// run through the slab's Next array in ascending order so the first
	// allocations sweep the slab sequentially. Every chain a cache will keep
	// whole is cut from these stretches, and one that crosses a stretch's
	// end stays two runs for life: at one magazine per stretch a fifth of
	// MTU chains did, at four one in eighteen.
	mag *= 4
	for base := cfg.NumSegments; base > 0; base -= mag {
		lo := base - mag
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < base-1; i++ {
			st.view.Next[i] = int32(i + 1)
		}
		st.view.Next[base-1] = nilSeg
		st.pushMagazine(int32(lo), int32(base-lo), 0)
	}
	return st, nil
}

// NumSegments returns the pool size.
func (st *Store) NumSegments() int { return st.nseg }

// View returns the slab arrays.
func (st *Store) View() View { return st.view }

// Free returns the pool-wide free population: depot magazines plus every
// registered cache's mirror, each exact while its owner is outside a
// critical section (see Cache.count). The sum is retried if the depot's
// count changed while the mirrors were read — a reader descheduled between
// two loads would otherwise count a magazine in the depot and again in the
// cache that popped it meanwhile — so no segment is ever counted twice and
// the result stays in [0, NumSegments]. What it can miss is transient and
// conservative: a magazine in flight to the depot, a section's frees.
func (st *Store) Free() int {
	for {
		d := st.depotFree.Load()
		total := int(uint32(d))
		for _, c := range *st.caches.Load() {
			total += int(c.count.Load())
		}
		if st.depotFree.Load() == d {
			return total
		}
	}
}

// depotCount is the depot's segment count (see depotFree).
func (st *Store) depotCount() int { return int(uint32(st.depotFree.Load())) }

// depotAdd moves the depot's segment count by delta and bumps its sequence.
func (st *Store) depotAdd(delta int32) { st.depotFree.Add(1<<32 + uint64(int64(delta))) }

// Lent returns the pool-wide lent population (segments checked out as
// zero-copy views or in-flight write reservations), as of each owner's last
// Publish (see Cache.Lend).
func (st *Store) Lent() int { return int(st.lentSegs.Load()) }

// ReturnLentChains returns a lent batch of n segments (head→…→tail through
// View.Next; Next[tail] is overwritten) made of whole grain-segment chains,
// each well formed by its words (see WordLen), to the depot as one magazine
// on that grain's stack, and debits the lent population. A grain outside 2…MaxGrain, or one that does not divide n —
// a mixed batch has grain 0 — sends the batch to the general stack. Safe
// from any goroutine: the single publishing CAS in pushMagazine is the
// depot's normal concurrency discipline, and the caller owns the chain
// exclusively until that CAS, so its link writes happen-before any later
// allocation. The batch may be any length — pops handle non-nominal counts.
func (st *Store) ReturnLentChains(head, tail, n, grain int32) {
	if n <= 0 {
		return
	}
	g := grainOf(grain)
	if g != 0 && n%g != 0 {
		g = 0
	}
	st.view.Next[tail] = nilSeg
	st.pushMagazine(head, n, g)
	st.lentSegs.Add(-int64(n))
}

// pushMagazine publishes the chain headed by head (count segments linked
// through View.Next, whole grain-segment chains) onto depot stack grain.
// One CAS on success.
func (st *Store) pushMagazine(head, count, grain int32) {
	d := &st.depot[grain]
	st.dcount[head] = count
	st.depotAdd(count)
	for {
		old := d.Load()
		atomic.StoreInt32(&st.dnext[head], int32(old>>32)-1)
		nw := uint64(uint32(head+1))<<32 | uint64(uint32(old)+1)
		if d.CompareAndSwap(old, nw) {
			break
		}
	}
	if bit := uint64(1) << grain; grain != 0 && st.grains.Load()&bit == 0 {
		st.grains.Or(bit)
	}
}

// popMagazine claims the top magazine of stack grain. One CAS on success;
// ok is false when the stack is empty.
func (st *Store) popMagazine(grain int32) (head, count int32, ok bool) {
	d := &st.depot[grain]
	for {
		old := d.Load()
		head = int32(old>>32) - 1
		if head < 0 {
			return 0, 0, false
		}
		next := atomic.LoadInt32(&st.dnext[head])
		nw := uint64(uint32(next+1))<<32 | uint64(uint32(old)+1)
		if d.CompareAndSwap(old, nw) {
			count = st.dcount[head]
			st.depotAdd(-count)
			return head, count, true
		}
	}
}

// popGrained claims a magazine from the largest grain whose stack holds
// one, clearing the bits of the stacks it finds empty.
func (st *Store) popGrained() (head, count int32, ok bool) {
	for mask := st.grains.Load(); mask != 0; mask = st.grains.Load() {
		g := int32(bits.Len64(mask) - 1)
		if head, count, ok = st.popMagazine(g); ok {
			return head, count, true
		}
		st.clearGrain(g)
	}
	return 0, 0, false
}

// clearGrain clears grain's bit after a pop found its stack empty, and sets
// it again if a push landed meanwhile: the push either sees the bit clear
// and sets it, or set it before this clear, in which case its CAS precedes
// the reload below.
func (st *Store) clearGrain(grain int32) {
	bit := uint64(1) << grain
	st.grains.And(^bit)
	if st.depot[grain].Load()>>32 != 0 {
		st.grains.Or(bit)
	}
}

// CheckInvariants walks the depot and every registered cache, verifying
// that free storage is acyclic, correctly counted, that no segment appears
// twice, and that every depot magazine and every bin holds whole chains of
// its grain, each well formed by its words (see WordLen): runs that add up
// to the grain, linked s -> s+1 inside, and EOP on the chain's last segment
// only. It is CheckMarking on marks of its own; a check that also knows the
// queues passes its marks on to find segments both free and queued, or
// neither free, queued nor lent. Only meaningful when no owner is
// allocating (tests and debugging).
func (st *Store) CheckInvariants() error { return st.CheckMarking(make([]bool, st.nseg)) }

// CheckMarking is CheckInvariants over the caller's marks, one per segment:
// it marks every free segment it walks, and a segment already marked — by
// an earlier walk of some queue, or twice in free storage — is an error.
// Once every queue is walked too, CheckLent checks what is left unmarked.
func (st *Store) CheckMarking(seen []bool) error {
	k := &checker{st: st, seen: seen}
	var depotTotal int64
	mags := 0
	grains := st.grains.Load()
	for g := range st.depot {
		h := int32(st.depot[g].Load()>>32) - 1
		if h >= 0 && g != 0 && grains&(1<<g) == 0 {
			return fmt.Errorf("segstore: depot stack %d holds magazines but its grain bit is clear", g)
		}
		for ; h >= 0; h = atomic.LoadInt32(&st.dnext[h]) {
			if mags++; mags > st.nseg {
				return fmt.Errorf("segstore: depot magazine list cycles")
			}
			if err := k.chain("depot stack", g, h, st.dcount[h], int32(g)); err != nil {
				return err
			}
			depotTotal += int64(st.dcount[h])
		}
	}
	if got := int64(st.depotCount()); got != depotTotal {
		return fmt.Errorf("segstore: depot holds %d segments, counter says %d", depotTotal, got)
	}
	for i, c := range *st.caches.Load() {
		if err := k.cache(i, c); err != nil {
			return err
		}
	}
	return nil
}

// CheckLent ends a check whose queue walks and free walk (CheckMarking)
// have all marked seen: a segment no walk met is neither free nor queued,
// so the unmarked ones must be exactly the lent books. More is a leak;
// fewer, a lend that never happened.
func (st *Store) CheckLent(seen []bool) error {
	unmarked := 0
	for _, met := range seen {
		if !met {
			unmarked++
		}
	}
	if lent := st.Lent(); unmarked != lent {
		return fmt.Errorf("segstore: conservation violated: %d segments neither free nor queued, %d lent", unmarked, lent)
	}
	return nil
}

// checker walks free storage for CheckInvariants, marking every segment it
// meets so none is counted twice.
type checker struct {
	st   *Store
	seen []bool
}

// chain walks the count-segment chain from head, the i-th of where, made of
// whole grain-segment chains (grain 0: any), each well formed by its words.
func (k *checker) chain(where string, i int, head, count, grain int32) error {
	if grain != 0 && count%grain != 0 {
		return fmt.Errorf("segstore: %s %d holds %d segments, not whole %d-segment chains", where, i, count, grain)
	}
	v := &k.st.view
	s := head
	left := int32(0) // segments of the current run still to come
	for n := int32(0); n < count; n++ {
		if s < 0 || int(s) >= k.st.nseg {
			return errChain(where, i, s)
		}
		if k.seen[s] {
			return errDup(where, s)
		}
		k.seen[s] = true
		if grain != 0 {
			w, rest := v.Seg[s], grain-n%grain // rest: segments of this chain from s on
			if left == 0 {
				if left = int32(w >> WordRun); left < 1 || left > rest {
					return fmt.Errorf("segstore: %s %d: segment %d starts a run of %d with %d segments of its chain left",
						where, i, s, left, rest)
				}
			}
			if left--; left > 0 && v.Next[s] != s+1 {
				return fmt.Errorf("segstore: %s %d: segment %d inside a run is linked to %d", where, i, s, v.Next[s])
			}
			if (w&WordEOP != 0) != (rest == 1) {
				return fmt.Errorf("segstore: %s %d: segment %d has EOP %v with %d segments of its chain left",
					where, i, s, w&WordEOP != 0, rest)
			}
		}
		s = v.Next[s]
	}
	if s != nilSeg {
		return fmt.Errorf("segstore: %s %d chain longer than its count %d", where, i, count)
	}
	return nil
}

// cache walks cache i's magazines and bins and checks its bin mask, bin
// total and count mirror.
func (k *checker) cache(i int, c *Cache) error {
	for m := range c.mag {
		if err := k.chain("cache magazine", m, c.mag[m].head, c.mag[m].n, 0); err != nil {
			return err
		}
	}
	binned := int32(0)
	for g := range c.bins {
		b := c.bins[g]
		if (b.n > 0) != (c.mask&(1<<g) != 0) || (b.n > 0 && g < 2) {
			return fmt.Errorf("segstore: cache %d bin %d holds %d segments, mask %#x", i, g, b.n, c.mask)
		}
		if err := k.chain("cache bin", g, b.head, b.n, int32(g)); err != nil {
			return err
		}
		binned += b.n
	}
	if binned != c.binned {
		return errCount("cache bins", int(binned), int(c.binned))
	}
	if f := c.mag[1]; f.n > 0 {
		last := f.head
		for n := int32(1); n < f.n; n++ {
			last = k.st.view.Next[last]
		}
		if last != c.tail {
			return fmt.Errorf("segstore: cache %d free side ends at %d, tail says %d", i, last, c.tail)
		}
	}
	held := c.mag[0].n + c.mag[1].n + binned
	if got := c.count.Load(); got != held {
		return fmt.Errorf("segstore: cache %d holds %d segments, counter says %d", i, held, got)
	}
	return nil
}

func errChain(where string, i int, s int32) error {
	return fmt.Errorf("segstore: %s %d chain broken at segment %d", where, i, s)
}

func errDup(where string, s int32) error {
	return fmt.Errorf("segstore: segment %d appears twice in %s", s, where)
}

func errCount(where string, walked, counter int) error {
	return fmt.Errorf("segstore: %s holds %d segments, counter says %d", where, walked, counter)
}
