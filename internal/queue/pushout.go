package queue

// Push-out support for shared-buffer admission policies (Longest Queue
// Drop). The Manager can maintain an indexed max-heap over per-queue
// segment counts so the longest queue is found in O(1) and kept current in
// O(log n) per enqueue/dequeue — the software analogue of the occupancy
// comparator tree a shared-memory switch keeps beside its queue table.
// Tracking is off by default so the base datapath pays nothing for it.

import (
	"errors"
	"fmt"
)

// SetLongestTracking enables or disables the longest-queue max-heap.
// Enabling builds the heap from the current queue table in O(n); disabling
// frees it. While disabled, LongestQueue falls back to a linear scan.
func (m *Manager) SetLongestTracking(on bool) {
	if on == (m.heapPos != nil) {
		return
	}
	if !on {
		m.heap, m.heapPos = nil, nil
		m.longest.Store(0)
		return
	}
	m.heapPos = make([]int32, m.cfg.NumQueues)
	for q := range m.heapPos {
		m.heapPos[q] = -1
	}
	m.heap = m.heap[:0]
	for q := 0; q < m.cfg.NumQueues; q++ {
		if m.qsegs[q] > 0 {
			m.heapPos[q] = int32(len(m.heap))
			m.heap = append(m.heap, int32(q))
		}
	}
	// Bottom-up heapify.
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(int32(i))
	}
	m.publishLongest()
}

// LongestLen returns the segment count of the longest queue as last
// published by the owner, 0 when every queue is empty or tracking is off.
// Lock-free and safe from any goroutine: exact when read by the owner (or
// on one goroutine), a hint under concurrency.
func (m *Manager) LongestLen() int { return int(m.longest.Load()) }

// publishLongest refreshes the LongestLen mirror from the heap top, storing
// only when the value moved so a steady longest queue costs readers no
// invalidation.
func (m *Manager) publishLongest() {
	top := int32(0)
	if len(m.heap) > 0 {
		top = m.qsegs[m.heap[0]]
	}
	if m.longest.Load() != top {
		m.longest.Store(top)
	}
}

// LongestQueue returns the queue currently holding the most segments and
// its segment count. ok is false when every queue is empty. With tracking
// enabled this is O(1); otherwise it scans the queue table.
func (m *Manager) LongestQueue() (QueueID, int, bool) {
	if m.heapPos != nil {
		if len(m.heap) == 0 {
			return 0, 0, false
		}
		q := QueueID(m.heap[0])
		return q, int(m.qsegs[q]), true
	}
	best, bestLen := QueueID(0), int32(0)
	for q := 0; q < m.cfg.NumQueues; q++ {
		if m.qsegs[q] > bestLen {
			best, bestLen = QueueID(q), m.qsegs[q]
		}
	}
	return best, int(bestLen), bestLen > 0
}

// PushOutLongest drops the head packet of the longest queue and returns the
// victim queue and the number of segments freed (the caller keeps the drop
// accounting). When the longest queue's head is an incomplete packet
// (possible only through the raw segment API) a single segment is dropped
// instead so forward progress is guaranteed. ErrQueueEmpty is returned when
// every queue is empty.
func (m *Manager) PushOutLongest() (QueueID, int, error) {
	q, _, ok := m.LongestQueue()
	if !ok {
		return 0, 0, fmt.Errorf("%w: no queue to push out from", ErrQueueEmpty)
	}
	n, err := m.DeletePacket(q)
	if errors.Is(err, ErrNoPacket) {
		if err := m.DeleteSegment(q); err != nil {
			return q, 0, err
		}
		n = 1
	} else if err != nil {
		return q, n, err
	}
	return q, n, nil
}

// fixLongest restores the heap after qsegs[q] changed. It is a no-op when
// tracking is disabled, and small enough to inline so that case costs the
// datapath one load and no call.
func (m *Manager) fixLongest(q QueueID) {
	if m.heapPos != nil {
		m.reheap(q)
	}
}

// reheap is fixLongest with tracking on.
func (m *Manager) reheap(q QueueID) {
	pos := m.heapPos[q]
	switch {
	case m.qsegs[q] == 0:
		if pos >= 0 {
			m.heapRemove(pos)
		}
	case pos < 0:
		m.heapPos[q] = int32(len(m.heap))
		m.heap = append(m.heap, int32(q))
		m.siftUp(int32(len(m.heap) - 1))
	default:
		m.siftUp(pos)
		m.siftDown(m.heapPos[q])
	}
	m.publishLongest()
}

// heapRemove deletes the element at heap index pos.
func (m *Manager) heapRemove(pos int32) {
	q := m.heap[pos]
	last := int32(len(m.heap) - 1)
	m.heapPos[q] = -1
	if pos != last {
		moved := m.heap[last]
		m.heap[pos] = moved
		m.heapPos[moved] = pos
	}
	m.heap = m.heap[:last]
	if pos != last {
		m.siftUp(pos)
		m.siftDown(m.heapPos[m.heap[pos]])
	}
}

func (m *Manager) heapLess(i, j int32) bool {
	// Max-heap by segment count; ties broken by queue ID for determinism.
	a, b := m.heap[i], m.heap[j]
	if m.qsegs[a] != m.qsegs[b] {
		return m.qsegs[a] > m.qsegs[b]
	}
	return a < b
}

func (m *Manager) heapSwap(i, j int32) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.heapPos[m.heap[i]] = i
	m.heapPos[m.heap[j]] = j
}

func (m *Manager) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.heapLess(i, parent) {
			return
		}
		m.heapSwap(i, parent)
		i = parent
	}
}

func (m *Manager) siftDown(i int32) {
	n := int32(len(m.heap))
	for {
		best := i
		if l := 2*i + 1; l < n && m.heapLess(l, best) {
			best = l
		}
		if r := 2*i + 2; r < n && m.heapLess(r, best) {
			best = r
		}
		if best == i {
			return
		}
		m.heapSwap(i, best)
		i = best
	}
}
