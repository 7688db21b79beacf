package queue

// Zero-copy packet lifecycle. The paper's queue manager never reassembles
// a packet: transmission is a DMA gather over the 64-byte buffer chain, and
// reception writes segments into data memory as they arrive. This file is
// that datapath in software, in both directions:
//
//   - DequeuePacketView unlinks the head packet exactly like
//     consumeHeadChain but defers the FreeN: the chain leaves the queue
//     table and is handed to the consumer as a PacketView whose iterator
//     yields slices aliasing the slab, one per address-contiguous run of
//     the chain. Releasing the view returns the chain in one
//     FreeN-equivalent operation, without walking it.
//   - ReservePacket is the write-in-place inverse: the segment run is
//     allocated and pre-linked up front (or a whole chain reused), the
//     producer fills the slices a PacketWriter exposes (a readv target),
//     then Commit splices the chain onto the queue tail in O(1) — or Abort
//     hands the untouched run back.
//
// While checked out, segments are lent: on no queue and in no free storage,
// and counted by the store's lent population, so pool stats and
// CheckInvariants stay exact: free + queued + lent == pool size at every
// quiescent point.
//
// Ownership and thread-safety: DequeuePacketView, ReservePacket, and
// Commit are owner-context operations like every other Manager method (the
// engine calls them under the shard lock). Release, Retain, Range, and
// Abort are safe from any goroutine: the chain is exclusively owned by the
// view holder and the return path goes straight to the store's thread-safe
// depot (segstore.Cache.ReturnLent). So on a manager that owns its pool
// (New) a lent chain rejoins the free list through the depot, not at the
// FIFO's tail: FIFO reuse holds for segments the queue commands free, and
// the timed models never lend.

import (
	"fmt"
	"sync/atomic"
)

// PacketView is a dequeued packet still living in the slab: a lent chain of
// segments [head..end] whose payload the consumer reads in place. The zero
// value is invalid. Views are small value types (no heap allocation on the
// dequeue path); copies share one reference count, so exactly one Release
// must be called per DequeuePacketView plus one per Retain.
type PacketView struct {
	m     *Manager
	head  int32
	end   int32
	segs  int32
	bytes int32
}

// Valid reports whether the view refers to a packet (the zero view does
// not).
func (v PacketView) Valid() bool { return v.m != nil }

// Len returns the packet's payload length in bytes.
func (v PacketView) Len() int { return int(v.bytes) }

// Segments returns the number of segments in the chain.
func (v PacketView) Segments() int { return int(v.segs) }

// Head returns the first segment of the chain.
func (v PacketView) Head() Seg { return Seg(v.head) }

// End returns the last (EOP) segment of the chain.
func (v PacketView) End() Seg { return Seg(v.end) }

// Range calls fn with the packet's payload in packet order, one slice per
// contiguous run of the chain — at most one per segment, and a single slice
// for a packet whose segments are neighbours in the slab — stopping early if
// fn returns false. The slices alias the slab: they are valid only until the
// view's final Release and must not be retained past it.
func (v PacketView) Range(fn func(seg []byte) bool) {
	if v.m != nil {
		v.m.rangeChain(v.head, fn)
	}
}

// rangeChain yields the payload of the nil-terminated chain at head, one
// slice per run.
func (m *Manager) rangeChain(head int32, fn func(seg []byte) bool) {
	for s := head; s != nilSeg; {
		last, w, next := m.hop(s)
		base := int(s) * SegmentBytes
		if !fn(m.data[base : base+int(runBytes(s, last, w))]) {
			return
		}
		s = next
	}
}

// AppendTo appends the packet's payload to buf — the copy fallback for
// consumers that need a contiguous packet after all.
func (v PacketView) AppendTo(buf []byte) []byte {
	v.Range(func(seg []byte) bool {
		buf = append(buf, seg...)
		return true
	})
	return buf
}

// Retain adds a reference, for handing the view to an asynchronous
// consumer (a NIC-style transmit ring) that completes after the original
// holder returns. Every Retain needs a matching Release.
func (v PacketView) Retain() {
	atomic.AddInt32(&v.m.refs[v.head], 1)
}

// Release drops a reference; the final one returns the chain to the store
// in one bulk operation — one whole chain, which a shared store keeps whole
// for the next packet of its size. It is a ViewReleaser
// of one view, so it is safe from any goroutine, the zero view's Release
// does nothing, and releasing more times than Retain+1 panics — a double
// release means some consumer may still be reading segments that are back
// in the free pool, the use-after-free this accounting exists to catch.
// (Like sync.WaitGroup, the panic is best-effort: it detects the imbalance
// while the refcount slot has not been recycled by a later packet chain
// headed at the same segment.)
func (v PacketView) Release() {
	var r ViewReleaser
	r.Add(v)
	r.Flush()
}

// ViewReleaser accumulates view releases and returns the chains to the
// store in one bulk transaction per manager instead of one per packet. A
// consumer that drains views in batches (the engine's DequeueNextViewBatch
// loop) releases each packet into the accumulator and flushes once: the
// depot push — the one CAS the cross-goroutine return path costs — and the
// lent-counter update are paid once per batch, and no chain is walked: a
// released chain is linked to the batch at its head and its end. A batch
// of same-size chains goes back with that size as its grain, so a shared
// store hands them out whole again; a mixed batch has none. The zero value is ready to use. Like a single Release, an
// accumulator is one goroutine's tool; the flush itself is safe from any
// goroutine under the same shared-store condition as Release.
type ViewReleaser struct {
	m     *Manager
	head  int32
	tail  int32
	n     int32
	grain int32 // segments per chain while all are the same size, else 0
}

// Add releases one view into the accumulator. Views whose reference count
// has not reached zero (outstanding Retains) are skipped, exactly as
// Release would; over-release panics identically.
func (r *ViewReleaser) Add(v PacketView) {
	m := v.m
	if m == nil {
		return
	}
	c := atomic.AddInt32(&m.refs[v.head], -1)
	if c > 0 {
		return
	}
	if c < 0 {
		panic("queue: PacketView released more times than retained")
	}
	if r.m != m {
		r.Flush()
		r.m = m
	}
	if r.n == 0 {
		r.head, r.grain = v.head, v.segs
	} else {
		m.next[r.tail] = v.head
		if r.grain != v.segs {
			r.grain = 0
		}
	}
	r.tail = v.end
	r.n += v.segs
}

// Flush returns every accumulated chain to its store. The accumulator is
// reusable afterwards.
func (r *ViewReleaser) Flush() {
	if r.n > 0 {
		r.m.src.ReturnLentChains(r.head, r.tail, r.n, r.grain)
		r.n = 0
	}
}

// DequeuePacketView unlinks the packet at the head of q and returns it as
// a zero-copy view instead of reassembling it. The queue table and
// accounting update exactly as DequeuePacket's would; the segments go on
// the lent books and stay in the slab until the view's final Release. The
// one walk is findPacketEnd's hop over the chain's runs.
func (m *Manager) DequeuePacketView(q QueueID) (PacketView, error) {
	if err := m.checkQueue(q); err != nil {
		return PacketView{}, err
	}
	ch, err := m.findPacketEnd(q)
	if err != nil {
		return PacketView{}, err
	}
	head, end := int32(ch.Head), int32(ch.Tail)
	m.unspliceHead(q, ch, 1)
	m.next[end] = nilSeg
	m.src.Lend(int32(ch.Segs))
	atomic.StoreInt32(&m.refs[head], 1)
	return PacketView{m: m, head: head, end: end, segs: int32(ch.Segs), bytes: int32(ch.Bytes)}, nil
}

// PacketWriter is an in-flight write-in-place enqueue: a pre-linked,
// pre-sized segment run the producer fills through Range before Commit
// splices it onto the queue. The zero value is terminal. A writer must end
// in exactly one Commit or Abort; later terminal calls return
// ErrWriterDone.
type PacketWriter struct {
	m     *Manager
	q     QueueID
	head  int32
	tail  int32
	segs  int32
	bytes int32
	runs  int32 // runs the chain holds, counted into fillRuns at Commit
	whole bool  // the chain was reused whole, counted into fillWhole at Commit
}

// Valid reports whether the writer holds a live reservation.
func (w *PacketWriter) Valid() bool { return w.m != nil }

// Len returns the reserved payload length in bytes.
func (w *PacketWriter) Len() int { return int(w.bytes) }

// Segments returns the number of reserved segments.
func (w *PacketWriter) Segments() int { return int(w.segs) }

// Queue returns the destination queue.
func (w *PacketWriter) Queue() QueueID { return w.q }

// Range calls fn with the reserved payload memory in packet order, one
// writable slice per contiguous run of the reservation — at most one per
// segment, together exactly Len bytes — stopping early if fn returns false.
// These are the iovecs a socket reader hands to readv.
func (w *PacketWriter) Range(fn func(seg []byte) bool) {
	if w.m != nil {
		w.m.rangeChain(w.head, fn)
	}
}

// ReservePacket allocates and links the segment run for an n-byte packet
// destined for q, returning a PacketWriter exposing the run's payload
// slices for the producer to fill in place. Admission (the per-queue cap)
// is charged up front against q's current occupancy; the packet joins the
// queue — and its bytes join the queue's accounting — when Commit splices
// it, so packets land in Commit order, not Reserve order. On any error the
// pool and queue are untouched.
func (m *Manager) ReservePacket(q QueueID, n int) (PacketWriter, error) {
	if err := m.checkQueue(q); err != nil {
		return PacketWriter{}, err
	}
	if n <= 0 {
		return PacketWriter{}, fmt.Errorf("%w: empty packet", ErrBadLength)
	}
	needed := (n + SegmentBytes - 1) / SegmentBytes
	if !m.admissible(q, needed) {
		return PacketWriter{}, fmt.Errorf("%w: queue %d cannot accept %d segments", ErrQueueLimit, q, needed)
	}
	ch, runs, whole, err := m.allocChain(n, needed, nil)
	if err != nil {
		return PacketWriter{}, err
	}
	m.src.Lend(int32(needed))
	return PacketWriter{m: m, q: q, head: int32(ch.Head), tail: int32(ch.Tail),
		segs: int32(needed), bytes: int32(n), runs: int32(runs), whole: whole}, nil
}

// Commit splices the filled run onto the queue tail — one queue-table and
// accounting update, no data copy — and takes the segments back off the
// lent books. Owner context only, like the ReservePacket that opened the
// writer. The writer becomes terminal.
func (w *PacketWriter) Commit() error {
	m := w.m
	if m == nil {
		return ErrWriterDone
	}
	m.fillRuns += uint64(w.runs)
	if w.whole {
		m.fillWhole++
	}
	m.splice(w.q, PacketChain{
		Head: Seg(w.head), Tail: Seg(w.tail), Segs: int(w.segs), Bytes: int(w.bytes),
	}, 1, false)
	m.src.Lend(-w.segs)
	*w = PacketWriter{}
	return nil
}

// Abort hands the reserved run back to the store in one bulk return,
// whole, without walking it or ever touching the queue. Safe from any goroutine,
// like a view release — a producer that reserved, failed its read, and
// aborts does not need the owner context. The writer becomes terminal.
func (w *PacketWriter) Abort() error {
	m := w.m
	if m == nil {
		return ErrWriterDone
	}
	m.src.ReturnLent(w.head, w.tail, w.segs)
	*w = PacketWriter{}
	return nil
}

// LentSegments returns the pool-wide lent population: segments checked out
// in views or open reservations. Owner context: this manager's own lending
// is counted (segstore.Cache.Lend has the contract).
func (m *Manager) LentSegments() int { return m.src.Lent() }

// FillRuns returns how many address-contiguous runs the packets enqueued so
// far were recorded as (EnqueuePacket, and ReservePacket at Commit): divided
// by the segments enqueued it is how fragmented the free store hands out
// chains, 1/segments-per-packet at best and 1 at worst.
func (m *Manager) FillRuns() uint64 { return m.fillRuns }

// FillWhole returns how many of those packets were built on a whole chain
// of their size reused as it stands (segstore.Cache.AllocChain) rather than
// carved segment by segment: against the packets enqueued it is the share
// of the bin fast path.
func (m *Manager) FillWhole() uint64 { return m.fillWhole }
