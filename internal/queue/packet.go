package queue

import "fmt"

// EnqueuePacket segments data into SegmentBytes chunks and enqueues them on
// q, marking the last chunk EOP. It returns the number of segments used.
//
// This is the vectorized enqueue: the whole segment run is grabbed from the
// store in one AllocN, the chain is built off-queue (payload copies and link
// words written in a single pass, no per-segment accounting), and spliced
// onto the queue tail with one queue-table and accounting update — the same
// O(1) splice LinkPacketTail performs for cross-manager moves. Admission is
// charged for the full run up front, so the queue never holds a truncated
// packet: on a short allocation the partial run goes straight back to the
// store and the queue is untouched.
func (m *Manager) EnqueuePacket(q QueueID, data []byte) (int, error) {
	if err := m.checkQueue(q); err != nil {
		return 0, err
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("%w: empty packet", ErrBadLength)
	}
	needed := (len(data) + SegmentBytes - 1) / SegmentBytes
	if !m.admissible(q, needed) {
		return 0, fmt.Errorf("%w: queue %d cannot accept %d segments", ErrQueueLimit, q, needed)
	}
	// Check what this manager can actually allocate (its cache plus the
	// shared depot), not the pool-wide count: segments cached by other
	// owners are free but unreachable.
	// Pool-dry refusals return the bare sentinel: an overloaded caller sees
	// millions of them, so the error must not allocate.
	if needed > m.src.Avail() {
		return 0, ErrNoFreeSegments
	}
	run := m.runBuf(needed)
	if got := m.src.AllocN(run); got < needed {
		// Another owner drained the depot between the reservation check and
		// the grab. Nothing touched the queue yet, so there is no chain to
		// unwind — relink the partial run and hand it back in one FreeN.
		m.returnRun(run[:got])
		return 0, ErrNoFreeSegments
	}
	last := needed - 1
	off := 0
	for i, s := range run {
		end := off + SegmentBytes
		if end > len(data) {
			end = len(data)
		}
		m.segLen[s] = uint16(end - off)
		m.eop[s] = i == last
		m.state[s] = stateQueued
		if m.data != nil {
			base := int(s) * SegmentBytes
			copied := copy(m.data[base:base+SegmentBytes], data[off:end])
			clear(m.data[base+copied : base+SegmentBytes])
		}
		if i < last {
			m.next[s] = run[i+1]
		} else {
			m.next[s] = nilSeg
		}
		off = end
	}
	head := run[0]
	if m.qtail[q] == nilSeg {
		m.qhead[q] = head
	} else {
		m.next[m.qtail[q]] = head
	}
	m.qtail[q] = run[last]
	m.linkChainAccounting(q, PacketChain{
		Head: Seg(head), Tail: Seg(run[last]), Segs: needed, Bytes: len(data),
	})
	return needed, nil
}

// runBuf returns the manager's scratch run buffer, grown to hold n segment
// handles. It is reused across bulk operations, so steady-state packet
// enqueue performs no heap allocation.
func (m *Manager) runBuf(n int) []int32 {
	if cap(m.run) < n {
		m.run = make([]int32, n+n/2)
	}
	return m.run[:n]
}

// returnRun relinks a partially allocated run into one chain and gives it
// back to the store in a single FreeN. AllocN left the segments in the free
// state, so only the link words need rebuilding.
func (m *Manager) returnRun(run []int32) {
	if len(run) == 0 {
		return
	}
	for i := 0; i < len(run)-1; i++ {
		m.next[run[i]] = run[i+1]
	}
	m.src.FreeN(run[0], run[len(run)-1], int32(len(run)))
}

// DequeuePacket dequeues and reassembles the packet at the head of q.
// It requires data storage (Config.StoreData); otherwise it returns only
// the segment count with a nil payload.
func (m *Manager) DequeuePacket(q QueueID) ([]byte, int, error) {
	return m.DequeuePacketAppend(q, nil)
}

// DequeuePacketAppend is DequeuePacket appending into buf (which may be
// nil or recycled) instead of allocating, for callers that pool reassembly
// buffers. It returns the extended buffer and the segment count.
func (m *Manager) DequeuePacketAppend(q QueueID, buf []byte) ([]byte, int, error) {
	out, n, err := m.DequeuePacketInto(q, func(int) []byte { return buf })
	if err != nil {
		return buf, 0, err
	}
	return out, n, nil
}

// DequeuePacketInto is DequeuePacketAppend for callers that pool buffers by
// size: alloc is handed the packet's segment count — known from the one
// walk that finds the packet's end — and returns the buffer to append into,
// so a pooled buffer can be picked to fit and is never regrown. alloc is not
// called when there is no packet to dequeue.
func (m *Manager) DequeuePacketInto(q QueueID, alloc func(segs int) []byte) ([]byte, int, error) {
	if err := m.checkQueue(q); err != nil {
		return nil, 0, err
	}
	end, n, err := m.findPacketEnd(q)
	if err != nil {
		return nil, 0, err
	}
	return m.consumeHeadChain(q, int32(end), n, alloc(n), true), n, nil
}

// consumeHeadChain is the vectorized inverse of EnqueuePacket: it unlinks
// the chain [qhead..end] (n segments, guaranteed by the caller's
// findPacketEnd) from q and returns it to the store whole. One pass over the
// chain copies payloads (when copyData and data storage is on) and scrubs
// per-segment metadata with the links still intact; then the queue table and
// accounting update once — mirroring UnlinkHeadPacket — and the chain goes
// back via a single FreeN instead of one Free per segment.
func (m *Manager) consumeHeadChain(q QueueID, end int32, n int, buf []byte, copyData bool) []byte {
	head := m.qhead[q]
	copyData = copyData && m.data != nil
	var chainBytes int32
	for s := head; ; s = m.next[s] {
		ln := m.segLen[s]
		chainBytes += int32(ln)
		if copyData {
			base := int(s) * SegmentBytes
			buf = append(buf, m.data[base:base+int(ln)]...)
		}
		m.segLen[s] = 0
		m.eop[s] = false
		m.state[s] = stateFree
		if s == end {
			break
		}
	}
	m.qhead[q] = m.next[end]
	if m.qhead[q] == nilSeg {
		m.qtail[q] = nilSeg
	}
	m.qsegs[q] -= int32(n)
	m.qbytes[q] -= chainBytes
	m.qpkts[q]--
	m.queuedSegs -= int32(n)
	m.totalBytes -= int64(chainBytes)
	m.fixLongest(q)
	m.src.FreeN(head, end, int32(n))
	return buf
}

// PacketLen returns the byte length and segment count of the packet at the
// head of q without dequeuing it.
func (m *Manager) PacketLen(q QueueID) (bytes, segments int, err error) {
	if err := m.checkQueue(q); err != nil {
		return 0, 0, err
	}
	h := m.qhead[q]
	if h == nilSeg {
		return 0, 0, fmt.Errorf("%w: queue %d", ErrQueueEmpty, q)
	}
	for s := h; s != nilSeg; s = m.next[s] {
		bytes += int(m.segLen[s])
		segments++
		if m.eop[s] {
			return bytes, segments, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: queue %d", ErrNoPacket, q)
}

// CheckInvariants validates the pointer discipline this manager is
// responsible for:
//
//   - every queue's list is acyclic, its length matches the queue table,
//     its tail pointer matches the last element, and every member is in
//     the queued state;
//   - the per-queue byte/packet counters and the manager totals match the
//     walked lists;
//   - on a private pool it additionally walks the free list (via the
//     store), scans for floating segments, and checks segment
//     conservation: free + queued + floating + lent == pool size.
//
// With a shared store the free list and conservation span every manager on
// the slab, so those checks live on segstore.Store.CheckInvariants and the
// engine's aggregate CheckInvariants. It is O(pool size) and intended for
// tests and debugging.
func (m *Manager) CheckInvariants() error {
	seen := make([]bool, m.cfg.NumSegments)
	queued := int32(0)
	var walkedBytes int64
	for q := 0; q < m.cfg.NumQueues; q++ {
		n := int32(0)
		bytes := int32(0)
		pkts := int32(0)
		last := nilSeg
		for s := m.qhead[q]; s != nilSeg; s = m.next[s] {
			if seen[s] {
				return fmt.Errorf("queue: segment %d linked twice (queue %d)", s, q)
			}
			seen[s] = true
			if m.state[s] != stateQueued {
				return fmt.Errorf("queue: queued segment %d has state %d", s, m.state[s])
			}
			n++
			bytes += int32(m.segLen[s])
			if m.eop[s] {
				pkts++
			}
			last = s
			if n > int32(m.cfg.NumSegments) {
				return fmt.Errorf("queue: cycle in queue %d", q)
			}
		}
		if bytes != m.qbytes[q] {
			return fmt.Errorf("queue: queue %d holds %d bytes, counter says %d", q, bytes, m.qbytes[q])
		}
		if pkts != m.qpkts[q] {
			return fmt.Errorf("queue: queue %d holds %d packets, counter says %d", q, pkts, m.qpkts[q])
		}
		walkedBytes += int64(bytes)
		if n != m.qsegs[q] {
			return fmt.Errorf("queue: queue %d holds %d segments, table says %d", q, n, m.qsegs[q])
		}
		if m.qtail[q] != last {
			return fmt.Errorf("queue: queue %d tail pointer %d != last element %d", q, m.qtail[q], last)
		}
		if (m.qhead[q] == nilSeg) != (m.qtail[q] == nilSeg) {
			return fmt.Errorf("queue: queue %d head/tail nil mismatch", q)
		}
		queued += n
	}

	if walkedBytes != m.totalBytes {
		return fmt.Errorf("queue: %d bytes queued, counter says %d", walkedBytes, m.totalBytes)
	}
	if queued != m.queuedSegs {
		return fmt.Errorf("queue: %d segments queued, counter says %d", queued, m.queuedSegs)
	}
	if !m.src.Shared() {
		// Exclusive pool: the whole slab is ours, so scan for floating
		// segments, validate the free list, and check conservation.
		if err := m.src.CheckInvariants(); err != nil {
			return err
		}
		floating := int32(0)
		for s := range m.state {
			if m.state[s] == stateFloating {
				floating++
			}
		}
		if floating != m.floating {
			return fmt.Errorf("queue: %d floating segments, counter says %d", floating, m.floating)
		}
		lent := int32(m.src.Lent())
		if int32(m.src.FreeSegments())+queued+floating+lent != int32(m.cfg.NumSegments) {
			return fmt.Errorf("queue: conservation violated: %d free + %d queued + %d floating + %d lent != %d",
				m.src.FreeSegments(), queued, floating, lent, m.cfg.NumSegments)
		}
	}

	// Longest-queue heap discipline (when tracking is enabled): the heap
	// holds exactly the non-empty queues, positions match, every parent
	// sorts no later than its children, and the published mirror equals the
	// top's length (0 with tracking off or every queue empty).
	top := 0
	if m.heapPos != nil {
		_, top, _ = m.LongestQueue()
	}
	if got := m.LongestLen(); got != top {
		return fmt.Errorf("queue: longest-length mirror says %d, longest queue holds %d", got, top)
	}
	if m.heapPos != nil {
		nonEmpty := 0
		for q := 0; q < m.cfg.NumQueues; q++ {
			if m.qsegs[q] > 0 {
				nonEmpty++
				if m.heapPos[q] < 0 {
					return fmt.Errorf("queue: non-empty queue %d missing from longest-heap", q)
				}
			} else if m.heapPos[q] >= 0 {
				return fmt.Errorf("queue: empty queue %d present in longest-heap", q)
			}
		}
		if nonEmpty != len(m.heap) {
			return fmt.Errorf("queue: longest-heap holds %d queues, %d are non-empty", len(m.heap), nonEmpty)
		}
		for i, q := range m.heap {
			if m.heapPos[q] != int32(i) {
				return fmt.Errorf("queue: longest-heap position of queue %d is %d, index says %d", q, m.heapPos[q], i)
			}
			if i > 0 && m.heapLess(int32(i), int32((i-1)/2)) {
				return fmt.Errorf("queue: longest-heap property violated at index %d (queue %d)", i, q)
			}
		}
	}
	return nil
}
