package queue

// This file adds the buffer-management layer the paper's Section 1/2 places
// next to per-flow queuing ("buffer and traffic management"): per-queue
// occupancy accounting and admission thresholds, so callers can implement
// tail-drop or weighted drop policies per flow instead of sharing the whole
// segment pool first-come-first-served.

import "fmt"

// Occupancy describes a queue's current buffer usage.
type Occupancy struct {
	Segments int // linked segments
	Bytes    int // payload bytes across those segments
	Packets  int // complete packets (EOP markers) in the queue
}

// Occupancy returns the live usage of queue q. Byte and packet counts are
// maintained incrementally (O(1) per operation), mirroring the occupancy
// counters a hardware queue manager keeps beside the queue table.
func (m *Manager) Occupancy(q QueueID) (Occupancy, error) {
	if err := m.checkQueue(q); err != nil {
		return Occupancy{}, err
	}
	return Occupancy{
		Segments: int(m.qsegs[q]),
		Bytes:    int(m.qbytes[q]),
		Packets:  int(m.qpkts[q]),
	}, nil
}

// SetSegmentLimit caps queue q at the given number of linked segments
// (0 removes the cap). Enqueues beyond the cap fail with ErrQueueLimit.
//
// The cap is an admission threshold, not a reservation: setting it below
// the queue's current occupancy only blocks future enqueues. Limits larger
// than the segment pool are unreachable (the pool empties first), so they
// are clamped to NumSegments; SegmentLimit reports the clamped value.
func (m *Manager) SetSegmentLimit(q QueueID, limit int) error {
	if err := m.checkQueue(q); err != nil {
		return err
	}
	if limit < 0 {
		return fmt.Errorf("%w: negative limit %d", ErrBadLength, limit)
	}
	if limit > m.cfg.NumSegments {
		limit = m.cfg.NumSegments
	}
	if m.qlimit == nil {
		if limit == 0 {
			return nil
		}
		m.qlimit = make([]int32, m.cfg.NumQueues)
	}
	m.qlimit[q] = int32(limit)
	return nil
}

// SegmentLimit returns queue q's admission cap (0 = uncapped).
func (m *Manager) SegmentLimit(q QueueID) (int, error) {
	if err := m.checkQueue(q); err != nil {
		return 0, err
	}
	if m.qlimit == nil {
		return 0, nil
	}
	return int(m.qlimit[q]), nil
}

// admissible reports whether n more segments may join queue q.
func (m *Manager) admissible(q QueueID, n int) bool {
	if m.qlimit == nil || m.qlimit[q] == 0 {
		return true
	}
	return m.qsegs[q]+int32(n) <= m.qlimit[q]
}

// TotalBuffered returns the pool-wide buffered byte count.
func (m *Manager) TotalBuffered() int { return int(m.totalBytes) }

// noteRewrite updates accounting when a queued segment's length changes in
// place (its EOP marker never does).
func (m *Manager) noteRewrite(q QueueID, oldLen, newLen int) {
	d := int32(newLen - oldLen)
	m.qbytes[q] += d
	m.totalBytes += int64(d)
}
