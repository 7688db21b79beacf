// Package queue implements the paper's central data structure: a
// segment-aligned, linked-list queue manager with a hardware-style free list
// and queue table, supporting per-flow queuing for up to 32K flows
// (Sections 5.2 and 6).
//
// Incoming data items are partitioned into fixed-size segments of 64 bytes.
// Queues of packets are kept as single-linked lists of segment indices; a
// free list holds the unused segments; a queue table holds head/tail
// pointers for every flow. All state lives in flat arrays indexed by segment
// or queue number — the same layout the hardware keeps in its pointer SRAM —
// so the timed models can charge one pointer-memory access per array touch.
//
// The Manager implements every MMS queue operation from Section 6:
//
//  1. enqueue one segment,
//  2. delete one segment or a full packet,
//  3. overwrite a segment (data and/or length),
//  4. append a segment at the head or tail of a packet,
//  5. move a packet to a new queue (pure pointer surgery, no data copy).
//
// Packet boundaries are marked with an end-of-packet (EOP) flag on the last
// segment, as in ATM AAL5 and the paper's segmentation scheme.
//
// Length, EOP flag and a run length share one 16-bit word per segment, in
// the layout segstore owns (segstore.WordLen): every chain is a list of
// address-contiguous runs, so the packet operations step run by run (hop)
// instead of segment by segment. The store's cache (segstore.Cache) hands a
// freed packet chain back whole, words and all, to the next packet of its
// size, which keeps its links and runs (reuseChain); loose segments it
// reuses in the order they were freed, the seed's FIFO free list.
package queue

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"npqm/internal/prefetch"
	"npqm/internal/segstore"
)

// SegmentBytes is the fixed segment size used throughout the paper; the
// store decides it.
const SegmentBytes = segstore.SegmentBytes

// DefaultNumQueues is the MMS flow count ("per flow queuing for up to 32K
// flows").
const DefaultNumQueues = 32 * 1024

// nilSeg is the null segment pointer.
const nilSeg = int32(-1)

// fullWord is the word of a run's interior segment (segstore.WordLen has
// the layout): full, no EOP, no run mark. Runs are recorded when a packet's
// chain is built (buildChain) and only ever split (splitHead), never merged;
// a chain reused whole (reuseChain) keeps them.
const fullWord = SegmentBytes

// Seg is a segment handle (index into the segment pool).
type Seg int32

// Nil reports whether the handle is the null pointer.
func (s Seg) Nil() bool { return int32(s) == nilSeg }

// QueueID identifies one of the per-flow queues.
type QueueID uint32

// Errors returned by Manager operations.
var (
	ErrNoFreeSegments = errors.New("queue: out of free segments")
	ErrQueueEmpty     = errors.New("queue: queue is empty")
	ErrBadQueue       = errors.New("queue: queue id out of range")
	ErrBadLength      = errors.New("queue: segment length out of range")
	ErrBadSegment     = errors.New("queue: segment handle out of range")
	ErrNoPacket       = errors.New("queue: no complete packet at queue head")
	ErrQueueLimit     = errors.New("queue: per-queue segment limit exceeded")
	ErrWriterDone     = errors.New("queue: packet writer already committed or aborted")
)

// Config sizes a Manager.
type Config struct {
	// NumQueues is the number of flow queues (0 means DefaultNumQueues).
	NumQueues int
	// NumSegments is the segment pool size (required, > 0).
	NumSegments int
	// StoreData is ignored: every manager stores its segments' payload.
	//
	// Deprecated: bench shim.
	StoreData bool
}

// Manager is the queue management engine. It is not safe for concurrent use;
// the hardware it models is a single pipeline, and the timed wrappers
// serialize commands exactly as the MMS scheduler does. Managers built with
// NewWithStore share one segment slab: each is still single-threaded, but
// several of them (each under its own lock) draw from the same pool.
type Manager struct {
	cfg Config

	// src is the store cache this manager allocates from; the slices below
	// alias its slab. own is the store when this manager owns it whole
	// (New), nil on a shared one.
	src *segstore.Cache
	own *segstore.Store

	// Per-segment pointer memory (the ZBT SRAM contents): a link and a word
	// per segment, as in the paper's MMS, and no lifecycle state —
	// CheckInvariants derives it from where a segment is (see
	// segstore.View). With a shared store these arrays are shared with
	// every other manager on the slab; each manager touches only segments
	// it currently owns.
	next []int32
	seg  []uint16 // segment words: length, EOP, run length (segstore.WordLen)
	refs []int32  // per-chain-head view refcounts (atomic access only)

	// Queue table.
	qhead []int32
	qtail []int32
	qsegs []int32 // segments per queue

	// Buffer-management accounting (see accounting.go).
	qbytes     []int32 // payload bytes per queue
	qpkts      []int32 // complete packets per queue
	qlimit     []int32 // per-queue segment cap (nil/0 = uncapped)
	totalBytes int64

	queuedSegs int32 // total segments linked across this manager's queues

	// Longest-queue tracking (see pushout.go): an indexed max-heap over
	// qsegs, maintained only when heapPos is non-nil. Multi-segment packet
	// operations move whole chains with one accounting update, so the heap
	// reconciles once per packet by construction.
	heap    []int32
	heapPos []int32

	// run is the scratch buffer bulk packet operations stage segment runs
	// in; it grows to the largest packet seen and is reused, so the packet
	// hot path performs no heap allocation.
	run []int32

	// fillRuns counts the runs of the chains of packets that joined a queue;
	// against the segments enqueued it is the pool's fragmentation. fillWhole
	// counts those packets whose chain was reused whole (reuseChain).
	fillRuns  uint64
	fillWhole uint64

	// Data memory (aliases the store's payload slab).
	data []byte

	_ [mirrorPad]byte // owner-hot words above; cross-thread mirror below

	// longest mirrors the segment count of the longest-queue heap's top for
	// lock-free readers (LongestLen): other owners on a shared slab elect a
	// push-out victim from these words without entering this manager. The
	// owner stores it from fixLongest/SetLongestTracking, only when the
	// value changes and only while tracking is on; 0 otherwise.
	longest atomic.Int32

	_ [mirrorPad]byte // keep the next heap neighbour off the mirror's line
}

// mirrorPad separates the owner-hot manager words from the cross-thread
// longest-length mirror, as segstore's cachePad does for the free-count
// mirror: 128 bytes covers the adjacent-line prefetcher pair.
// layout_test.go pins the distances.
const mirrorPad = 128

// New returns a Manager that owns its segment pool: a store of one
// pool-sized magazine under one cache, which is the seed's FIFO free list
// (loose segments leave from its head and return at its tail), kept for the
// timed models whose DDR bank-interleaving measurements depend on FIFO
// reuse order.
func New(cfg Config) (*Manager, error) {
	if cfg.NumSegments <= 0 {
		return nil, fmt.Errorf("queue: NumSegments must be positive, got %d", cfg.NumSegments)
	}
	st, err := segstore.New(segstore.Config{NumSegments: cfg.NumSegments, MagazineSize: cfg.NumSegments})
	if err != nil {
		return nil, err
	}
	m, err := NewWithStore(cfg, st.NewCache())
	if err == nil {
		m.own = st
	}
	return m, err
}

// NewWithStore returns a Manager drawing segments from src, one cache of a
// segstore.Store, so several managers (the engine's shards) allocate from a
// single pool. cfg.NumSegments is taken from the store.
func NewWithStore(cfg Config, src *segstore.Cache) (*Manager, error) {
	if cfg.NumQueues == 0 {
		cfg.NumQueues = DefaultNumQueues
	}
	if cfg.NumQueues < 0 {
		return nil, fmt.Errorf("queue: negative NumQueues %d", cfg.NumQueues)
	}
	cfg.NumSegments = src.NumSegments()
	view := src.View()
	m := &Manager{
		cfg:    cfg,
		src:    src,
		next:   view.Next,
		seg:    view.Seg,
		refs:   view.Refs,
		data:   view.Data,
		qhead:  make([]int32, cfg.NumQueues),
		qtail:  make([]int32, cfg.NumQueues),
		qsegs:  make([]int32, cfg.NumQueues),
		qbytes: make([]int32, cfg.NumQueues),
		qpkts:  make([]int32, cfg.NumQueues),
	}
	for q := range m.qhead {
		m.qhead[q], m.qtail[q] = nilSeg, nilSeg
	}
	return m, nil
}

// NumQueues returns the configured queue count.
func (m *Manager) NumQueues() int { return m.cfg.NumQueues }

// NumSegments returns the segment pool size (the whole shared pool for a
// manager on a shared store).
func (m *Manager) NumSegments() int { return m.cfg.NumSegments }

// FreeSegments returns the pool-wide free population. On a shared store
// this spans the depot and every owner's magazine cache — the occupancy
// signal shared-buffer admission policies consult. Queue operations do not
// refresh this manager's share of it: the cache's owner does when it leaves
// its critical section (segstore.Cache.Publish), and this call does first.
func (m *Manager) FreeSegments() int { return m.src.FreeSegments() }

// AvailSegments returns the number of segments this manager could allocate
// right now: unlike FreeSegments it excludes segments cached by other
// owners of a shared store.
func (m *Manager) AvailSegments() int { return m.src.Avail() }

// QueuedSegments returns the total segments linked across this manager's
// queues.
func (m *Manager) QueuedSegments() int { return int(m.queuedSegs) }

// Len returns the number of segments queued on q.
func (m *Manager) Len(q QueueID) (int, error) {
	if err := m.checkQueue(q); err != nil {
		return 0, err
	}
	return int(m.qsegs[q]), nil
}

func (m *Manager) checkQueue(q QueueID) error {
	if int(q) >= m.cfg.NumQueues {
		return fmt.Errorf("%w: %d (have %d)", ErrBadQueue, q, m.cfg.NumQueues)
	}
	return nil
}

func (m *Manager) checkSeg(s Seg) error {
	if s.Nil() || int(s) >= m.cfg.NumSegments {
		return fmt.Errorf("%w: %d", ErrBadSegment, s)
	}
	return nil
}

// SegInfo describes a queued or dequeued segment.
type SegInfo struct {
	Seg Seg  // handle
	Len int  // payload length in bytes (1..SegmentBytes)
	EOP bool // end-of-packet marker
}

// info decodes segment s's word.
func (m *Manager) info(s int32) SegInfo {
	w := m.seg[s]
	return SegInfo{Seg: Seg(s), Len: int(w & segstore.WordLen), EOP: w&segstore.WordEOP != 0}
}

// hop steps over the run that starts at s (segstore.Hop): it returns the
// run's last segment, that segment's word and its link.
func (m *Manager) hop(s int32) (last int32, w uint16, next int32) {
	return segstore.Hop(m.seg, m.next, s)
}

// runBytes is the payload of the run [s..last] whose last word is w.
func runBytes(s, last int32, w uint16) int32 {
	return (last-s)*SegmentBytes + int32(w&segstore.WordLen)
}

// splitHead makes h a run of one before it is unlinked or rewritten; the
// rest of its run starts at h+1 and inherits the remaining length. The one
// way a run changes after buildChain recorded it.
func (m *Manager) splitHead(h int32) {
	if r := m.seg[h] >> segstore.WordRun; r > 1 {
		m.seg[h] = m.seg[h]&(segstore.WordLen|segstore.WordEOP) | segstore.LoneWord
		m.seg[h+1] = m.seg[h+1]&(segstore.WordLen|segstore.WordEOP) | (r-1)<<segstore.WordRun
	}
}

// checkLen rejects a segment length outside 1..SegmentBytes.
func checkLen(n int) error {
	if n < 1 || n > SegmentBytes {
		return fmt.Errorf("%w: %d bytes", ErrBadLength, n)
	}
	return nil
}

// setPayload stores payload (checkLen has passed it) into segment s,
// keeping its run mark.
func (m *Manager) setPayload(s int32, payload []byte, eop bool) {
	w := m.seg[s]&^(segstore.WordLen|segstore.WordEOP) | uint16(len(payload))
	if eop {
		w |= segstore.WordEOP
	}
	m.seg[s] = w
	base := int(s) * SegmentBytes
	copied := copy(m.data[base:base+SegmentBytes], payload)
	clear(m.data[base+copied : base+SegmentBytes])
}

// segChain describes the lone segment s, whose word is w, as the chain
// splice and unspliceHead take, with the packet it closes: one if it
// carries the EOP mark, else none.
func segChain(s int32, w uint16) (ch PacketChain, pkts int32) {
	ch = PacketChain{Head: Seg(s), Tail: Seg(s), Segs: 1, Bytes: int(w & segstore.WordLen)}
	return ch, int32(w&segstore.WordEOP) / segstore.WordEOP
}

// payload returns the stored bytes of segment s.
func (m *Manager) payload(s Seg) []byte {
	base := int(s) * SegmentBytes
	out := make([]byte, m.seg[s]&segstore.WordLen)
	copy(out, m.data[base:])
	return out
}

// Enqueue takes a segment from the store, fills it with payload and links it
// at the tail of queue q. This is the MMS "Enqueue one segment" command.
func (m *Manager) Enqueue(q QueueID, payload []byte, eop bool) (Seg, error) {
	return m.enqueueSegment(q, payload, eop, false)
}

// AppendHead takes a segment from the store and links it at the *head* of
// queue q — the MMS "append a segment at the head of a packet" command, used
// for protocol encapsulation (prepending headers without copying the
// packet).
func (m *Manager) AppendHead(q QueueID, payload []byte, eop bool) (Seg, error) {
	return m.enqueueSegment(q, payload, eop, true)
}

// enqueueSegment is Enqueue and AppendHead on the packet primitives: a
// one-segment AllocN, the segment written, and a splice at the tail or
// (atHead) the head. Queue, length and cap are all checked before
// anything is allocated, so a refused command leaves the pool as it was.
func (m *Manager) enqueueSegment(q QueueID, payload []byte, eop, atHead bool) (Seg, error) {
	if err := m.checkQueue(q); err != nil {
		return Seg(nilSeg), err
	}
	if err := checkLen(len(payload)); err != nil {
		return Seg(nilSeg), err
	}
	if !m.admissible(q, 1) {
		return Seg(nilSeg), fmt.Errorf("%w: queue %d at %d segments", ErrQueueLimit, q, m.qsegs[q])
	}
	run := m.runBuf(1)
	if m.src.AllocN(run) == 0 {
		return Seg(nilSeg), ErrNoFreeSegments
	}
	s := run[0]
	m.seg[s] = segstore.LoneWord
	m.setPayload(s, payload, eop)
	m.next[s] = nilSeg
	ch, pkts := segChain(s, m.seg[s])
	m.splice(q, ch, pkts, atHead)
	return Seg(s), nil
}

// headOf returns the head segment of q, or the error a single-segment
// command reports for an unknown or empty queue.
func (m *Manager) headOf(q QueueID) (int32, error) {
	if err := m.checkQueue(q); err != nil {
		return nilSeg, err
	}
	if h := m.qhead[q]; h != nilSeg {
		return h, nil
	}
	return nilSeg, fmt.Errorf("%w: queue %d", ErrQueueEmpty, q)
}

// Hint starts loading, without waiting for them, the lines a dequeuer will
// wait on two and one packets from now (see package prefetch): row's five
// queue-table words, and the head segment of queue head — its word, link
// and first payload line. It reads qhead[head], which an earlier
// Hint with head as its row has started loading; an empty head queue gets
// its table words hinted only. Both rows must be in range.
func (m *Manager) Hint(row, head QueueID) {
	lines := [8]unsafe.Pointer{
		unsafe.Pointer(&m.qhead[row]), unsafe.Pointer(&m.qtail[row]), unsafe.Pointer(&m.qsegs[row]),
		unsafe.Pointer(&m.qbytes[row]), unsafe.Pointer(&m.qpkts[row]),
	}
	n := 5
	if h := m.qhead[head]; h != nilSeg {
		lines[5], lines[6] = unsafe.Pointer(&m.seg[h]), unsafe.Pointer(&m.next[h])
		lines[7] = unsafe.Pointer(&m.data[int(h)*SegmentBytes])
		n = 8
	}
	prefetch.Hint(lines[:n])
}

// dropHead unlinks the head segment of the non-empty queue q and returns it
// to the store: Dequeue and DeleteSegment on the packet primitives.
func (m *Manager) dropHead(q QueueID) {
	h := m.qhead[q]
	m.splitHead(h)
	ch, pkts := segChain(h, m.seg[h])
	m.unspliceHead(q, ch, pkts)
	m.src.FreeN(h, h, 1)
}

// Dequeue unlinks the head segment of q, frees it, and returns its
// description and payload. This is the MMS "Dequeue" command.
func (m *Manager) Dequeue(q QueueID) (SegInfo, []byte, error) {
	h, err := m.headOf(q)
	if err != nil {
		return SegInfo{}, nil, err
	}
	info, payload := m.info(h), m.payload(Seg(h))
	m.dropHead(q)
	return info, payload, nil
}

// ReadHead returns the head segment of q without dequeuing it — the MMS
// "Read" command.
func (m *Manager) ReadHead(q QueueID) (SegInfo, []byte, error) {
	h, err := m.headOf(q)
	if err != nil {
		return SegInfo{}, nil, err
	}
	return m.info(h), m.payload(Seg(h)), nil
}

// DeleteSegment unlinks and frees the head segment of q without returning
// data — the MMS "Delete one segment" command.
func (m *Manager) DeleteSegment(q QueueID) error {
	if _, err := m.headOf(q); err != nil {
		return err
	}
	m.dropHead(q)
	return nil
}

// DeletePacket unlinks and frees the whole packet at the head of q (all
// segments through the first EOP). It returns the number of segments freed —
// the MMS "Delete ... a full packet" command. If the queue holds no complete
// packet the queue is left untouched and ErrNoPacket is returned.
func (m *Manager) DeletePacket(q QueueID) (int, error) {
	if err := m.checkQueue(q); err != nil {
		return 0, err
	}
	ch, err := m.findPacketEnd(q)
	if err != nil {
		return 0, err
	}
	m.consumeHeadChain(q, ch, nil, false)
	return ch.Segs, nil
}

// findPacketEnd hops from the head of q to the first EOP segment and
// describes the packet it closes: head, end, segment and byte counts. The
// chain stays linked into q.
func (m *Manager) findPacketEnd(q QueueID) (PacketChain, error) {
	h := m.qhead[q]
	if h == nilSeg {
		return PacketChain{}, fmt.Errorf("%w: queue %d", ErrQueueEmpty, q)
	}
	var n, bytes int32
	for s := h; s != nilSeg; {
		last, w, next := m.hop(s)
		n += last - s + 1
		bytes += runBytes(s, last, w)
		if w&segstore.WordEOP != 0 {
			return PacketChain{Head: Seg(h), Tail: Seg(last), Segs: int(n), Bytes: int(bytes)}, nil
		}
		s = next
	}
	return PacketChain{}, fmt.Errorf("%w: queue %d", ErrNoPacket, q)
}

// Overwrite replaces the payload of the head segment of q in place — the MMS
// "Overwrite a segment" command (used e.g. for header modification). The
// EOP flag is preserved.
func (m *Manager) Overwrite(q QueueID, payload []byte) error {
	h, err := m.headOf(q)
	if err != nil {
		return err
	}
	if err := checkLen(len(payload)); err != nil {
		return err
	}
	old := m.info(h)
	m.setPayload(h, payload, old.EOP)
	m.splitHead(h)
	m.noteRewrite(q, old.Len, len(payload))
	return nil
}

// OverwriteLength updates only the stored length of the head segment of q —
// the MMS "Overwrite_Segment_length" command (7 cycles in Table 4: it is a
// metadata-only operation with no data-memory access).
func (m *Manager) OverwriteLength(q QueueID, n int) error {
	h, err := m.headOf(q)
	if err != nil {
		return err
	}
	if err := checkLen(n); err != nil {
		return err
	}
	m.noteRewrite(q, int(m.seg[h]&segstore.WordLen), n)
	m.seg[h] = m.seg[h]&^segstore.WordLen | uint16(n)
	m.splitHead(h)
	return nil
}

// MovePacket relinks the packet at the head of from onto the tail of to
// without touching data memory — the MMS "Move a packet to a new queue"
// command. It returns the number of segments moved.
func (m *Manager) MovePacket(from, to QueueID) (int, error) {
	if err := m.checkQueue(from); err != nil {
		return 0, err
	}
	if err := m.checkQueue(to); err != nil {
		return 0, err
	}
	ch, err := m.findPacketEnd(from)
	if err != nil {
		return 0, err
	}
	n := ch.Segs
	if from == to {
		// Moving a packet to its own queue rotates it to the tail.
		if int(m.qsegs[from]) == n {
			return n, nil // whole queue is the packet: no-op
		}
	} else if !m.admissible(to, n) {
		return 0, fmt.Errorf("%w: queue %d cannot accept %d segments", ErrQueueLimit, to, n)
	}
	m.unspliceHead(from, ch, 1)
	m.next[ch.Tail] = nilSeg
	m.splice(to, ch, 1, false)
	return n, nil
}

// OverwriteAndMove combines Overwrite with MovePacket — the MMS
// "Overwrite_Segment&Move" command (12 cycles in Table 4). The head segment
// of from is overwritten, then the head packet moves to queue to.
func (m *Manager) OverwriteAndMove(from, to QueueID, payload []byte) (int, error) {
	if err := m.Overwrite(from, payload); err != nil {
		return 0, err
	}
	return m.MovePacket(from, to)
}

// OverwriteLengthAndMove combines OverwriteLength with MovePacket — the MMS
// "Overwrite_Segment_length&Move" command (12 cycles in Table 4).
func (m *Manager) OverwriteLengthAndMove(from, to QueueID, n int) (int, error) {
	if err := m.OverwriteLength(from, n); err != nil {
		return 0, err
	}
	return m.MovePacket(from, to)
}

// Payload returns a copy of the stored payload of segment s.
func (m *Manager) Payload(s Seg) ([]byte, error) {
	if err := m.checkSeg(s); err != nil {
		return nil, err
	}
	return m.payload(s), nil
}
