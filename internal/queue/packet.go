package queue

import (
	"fmt"

	"npqm/internal/segstore"
)

// EnqueuePacket segments data into SegmentBytes chunks and enqueues them on
// q, marking the last chunk EOP. It returns the number of segments used.
//
// This is the vectorized enqueue: the packet's chain is made off-queue in
// one piece (allocChain: a whole chain reused as it stands, or a run from
// one AllocN built in one pass), with one payload copy per
// address-contiguous run and no per-segment accounting, and spliced onto
// the queue tail with one queue-table and accounting update — the same O(1)
// splice LinkPacketTail performs for cross-manager moves. Admission is
// charged for the full run up front, so the queue never holds a truncated
// packet: a short allocation leaves the queue untouched.
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
	ch, runs, whole, err := m.allocChain(len(data), needed, data)
	if err != nil {
		return 0, err
	}
	m.fillRuns += uint64(runs)
	if whole {
		m.fillWhole++
	}
	m.splice(q, ch, 1, false)
	return needed, nil
}

// allocChain gives an n-byte packet of segs segments its chain, with
// payload copied in when given, and reports how many runs the chain
// holds and whether it was reused whole. A packet of more than one segment
// first asks the cache for a whole chain of its size
// (segstore.Cache.AllocChain) and reuses it as it stands (reuseChain);
// otherwise, or on a miss, the segments come from one AllocN and buildChain
// links and codes them. One-segment packets skip the ask: their bin never
// exists. On ErrNoFreeSegments the pool is as it was.
func (m *Manager) allocChain(n, segs int, payload []byte) (ch PacketChain, runs int, whole bool, err error) {
	ch.Segs, ch.Bytes = segs, n
	if segs > 1 {
		if head, tail, ok := m.src.AllocChain(int32(segs)); ok {
			ch.Head, ch.Tail = Seg(head), Seg(tail)
			return ch, m.reuseChain(head, tail, n, payload), true, nil
		}
	}
	// Check what this manager can actually allocate (its cache plus the
	// shared depot), not the pool-wide count: segments cached by other
	// owners are free but unreachable.
	// Pool-dry refusals return the bare sentinel: an overloaded caller sees
	// millions of them, so the error must not allocate.
	if segs > m.src.Avail() {
		return ch, 0, false, ErrNoFreeSegments
	}
	run := m.runBuf(segs)
	if got := m.src.AllocN(run); got < segs {
		// Another owner drained the depot between the reservation check and
		// the grab. Nothing touched a queue yet, so there is no chain to
		// unwind — hand the partial run back in one FreeN.
		m.returnRun(run[:got])
		return ch, 0, false, ErrNoFreeSegments
	}
	ch.Head, ch.Tail = Seg(run[0]), Seg(run[segs-1])
	return ch, m.buildChain(run, n, payload), false, nil
}

// reuseChain makes the whole chain [head..tail], popped as it stands, the
// chain of an n-byte packet and returns how many runs it holds. Its links
// and run marks stay; one pass over its runs copies each run's payload
// (when given) and gives the last segment of every run but the tail a full
// word — a segment command may have left it short. The tail gets the
// packet's last length and EOP, a nil link and, with a payload, cleared
// slack.
func (m *Manager) reuseChain(head, tail int32, n int, payload []byte) (runs int) {
	off := 0 // payload offset of the run at s
	for s := head; ; {
		last, w, next := m.hop(s)
		end := off + int(last-s+1)*SegmentBytes
		if payload != nil {
			copy(m.data[int(s)*SegmentBytes:], payload[off:min(n, end)])
		}
		runs++
		w &^= segstore.WordLen | segstore.WordEOP
		if last == tail {
			k := n - end + SegmentBytes // bytes in the tail
			m.seg[last] = w | uint16(k) | segstore.WordEOP
			m.next[last] = nilSeg
			if payload != nil {
				base := int(last) * SegmentBytes
				clear(m.data[base+k : base+SegmentBytes])
			}
			return runs
		}
		m.seg[last] = w | fullWord
		s, off = next, end
	}
}

// buildChain turns the freshly allocated segments in run into the chain of
// an n-byte packet and returns how many address-contiguous runs it
// recorded. AllocN carves ascending magazines, so neighbours in run are
// usually neighbours in the slab: each maximal stretch (capped at
// segstore.MaxRun) becomes one run. Everything a segment needs — word and
// link — is written in this one pass; the segment that closes a stretch
// also marks the stretch's first word and copies the stretch's payload
// (when given) in one piece rather than segment by segment.
func (m *Manager) buildChain(run []int32, n int, payload []byte) (runs int) {
	end := len(run) - 1
	start := 0 // index in run of the open stretch's first segment
	for i, s := range run {
		w, next := uint16(fullWord), nilSeg
		if i < end {
			next = run[i+1]
		} else {
			w = uint16(n-i*SegmentBytes) | segstore.WordEOP
		}
		m.next[s] = next
		if next == s+1 && i-start < segstore.MaxRun-1 {
			m.seg[s] = fullWord
			continue // s is inside a stretch: full, linked to its neighbour
		}
		first := run[start]
		if mark := uint16(i-start+1) << segstore.WordRun; first == s {
			m.seg[s] = w | mark
		} else {
			m.seg[s] = w
			m.seg[first] = fullWord | mark
		}
		if payload != nil {
			base, off := int(first)*SegmentBytes, start*SegmentBytes
			copy(m.data[base:], payload[off:min(n, off+(i-start+1)*SegmentBytes)])
		}
		start = i + 1
		runs++
	}
	if payload != nil {
		tail := int(run[end]) * SegmentBytes
		clear(m.data[tail+n-end*SegmentBytes : tail+SegmentBytes])
	}
	return runs
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

// returnRun gives a partially allocated run back to the store in a single
// FreeN. AllocN left the segments free with stale words, and a run of
// 2…MaxGrain segments lands in a bin, where the store finds a chain's end by
// its words and the next packet of that size reuses them as they stand — so
// the run is built first as a well-formed chain: linked, run-coded, EOP on
// its last segment.
func (m *Manager) returnRun(run []int32) {
	if len(run) == 0 {
		return
	}
	m.buildChain(run, len(run)*SegmentBytes, nil)
	m.src.FreeN(run[0], run[len(run)-1], int32(len(run)))
}

// DequeuePacket dequeues and reassembles the packet at the head of q and
// returns it with its segment count.
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
	ch, err := m.findPacketEnd(q)
	if err != nil {
		return nil, 0, err
	}
	return m.consumeHeadChain(q, ch, alloc(ch.Segs), true), ch.Segs, nil
}

// consumeHeadChain is the vectorized inverse of EnqueuePacket: it unlinks
// the head packet ch (from the caller's findPacketEnd) from q and returns it
// to the store whole. Only a copy (copyData) walks the chain, appending one
// run's payload at a time; then the queue table and accounting update once
// and the chain goes back via a single FreeN instead of one Free per
// segment.
func (m *Manager) consumeHeadChain(q QueueID, ch PacketChain, buf []byte, copyData bool) []byte {
	head, end := int32(ch.Head), int32(ch.Tail)
	if copyData {
		for s := head; ; {
			last, w, next := m.hop(s)
			base := int(s) * SegmentBytes
			buf = append(buf, m.data[base:base+int(runBytes(s, last, w))]...)
			if last == end {
				break
			}
			s = next
		}
	}
	m.unspliceHead(q, ch, 1)
	m.src.FreeN(head, end, int32(ch.Segs))
	return buf
}

// PacketLen returns the byte length and segment count of the packet at the
// head of q without dequeuing it.
func (m *Manager) PacketLen(q QueueID) (bytes, segments int, err error) {
	if err := m.checkQueue(q); err != nil {
		return 0, 0, err
	}
	ch, err := m.findPacketEnd(q)
	return ch.Bytes, ch.Segs, err
}

// CheckInvariants validates the pointer discipline this manager is
// responsible for (CheckMarking, on marks of its own) and, on a pool it
// owns (New), the free storage and segment conservation: the store's free
// walk marks the same array (segstore.Store.CheckMarking), so a segment
// both free and queued is an error, and the segments neither walk meets
// must be exactly the lent ones (segstore.Store.CheckLent). With a shared
// store the free storage and conservation span every manager on the slab,
// so the engine's aggregate CheckInvariants checks them. O(pool size); for
// tests and debugging.
func (m *Manager) CheckInvariants() error {
	seen := make([]bool, m.cfg.NumSegments)
	if err := m.CheckMarking(seen); err != nil || m.own == nil {
		return err
	}
	m.src.Publish()
	if err := m.own.CheckMarking(seen); err != nil {
		return err
	}
	return m.own.CheckLent(seen)
}

// CheckMarking walks every queue, marking each segment it meets in seen
// (one mark per pool segment, shared with the other walks of one check):
//
//   - a segment already marked — linked twice here, or met by an earlier
//     walk of another manager or the free storage — is an error;
//   - every queue's list is acyclic, its length matches the queue table and
//     its tail pointer matches the last element;
//   - every run a chain claims is real: the run stays inside the pool, and
//     every segment before the run's last is full, non-EOP and linked to
//     its address successor;
//   - the per-queue byte/packet counters and the manager totals match the
//     walked lists, and the longest-queue heap and its mirror are sound.
func (m *Manager) CheckMarking(seen []bool) error {
	queued := int32(0)
	var walkedBytes int64
	for q := 0; q < m.cfg.NumQueues; q++ {
		n := int32(0)
		bytes := int32(0)
		pkts := int32(0)
		last := nilSeg
		left := int32(0) // segments of the current run still to come
		for s := m.qhead[q]; s != nilSeg; s = m.next[s] {
			if seen[s] {
				return fmt.Errorf("queue: segment %d linked twice (queue %d)", s, q)
			}
			seen[s] = true
			w := m.seg[s]
			if left == 0 {
				left = int32(w >> segstore.WordRun)
				if left < 1 || int(s+left) > m.cfg.NumSegments {
					return fmt.Errorf("queue: segment %d starts a run of %d (queue %d)", s, left, q)
				}
			}
			if left--; left > 0 && (m.next[s] != s+1 || w&(segstore.WordLen|segstore.WordEOP) != fullWord) {
				return fmt.Errorf("queue: segment %d inside a run is not full and linked to %d (queue %d): word %#x, next %d",
					s, s+1, q, w, m.next[s])
			}
			n++
			bytes += int32(w & segstore.WordLen)
			if w&segstore.WordEOP != 0 {
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
