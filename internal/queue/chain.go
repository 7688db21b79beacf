package queue

// Cross-manager packet transfer. Managers built over one shared
// segstore.Store alias the same slab, so a packet can move between two
// managers (the engine's shards) by pure pointer relinking — the MMS "Move
// a packet to a new queue" command generalized across shards — instead of
// the reassemble-and-copy the split-pool engine needed. In transit the
// segments are owned by the moving caller between the unlink and the link,
// and are never visible to either manager in a half-moved state.

import "fmt"

// PacketChain is a packet unlinked from a queue and in transit between
// managers: a chain of segments [Head..Tail] linked through the shared
// slab, ending in a nil pointer.
type PacketChain struct {
	Head, Tail Seg
	Segs       int // segments in the chain
	Bytes      int // payload bytes across the chain
}

// UnlinkHeadPacket removes the packet at the head of q and returns it as a
// chain for relinking into another manager on the same store. The segments
// leave this manager's accounting entirely. ErrNoPacket is returned when q
// holds no complete packet.
func (m *Manager) UnlinkHeadPacket(q QueueID) (PacketChain, error) {
	if err := m.checkQueue(q); err != nil {
		return PacketChain{}, err
	}
	ch, err := m.findPacketEnd(q)
	if err != nil {
		return PacketChain{}, err
	}
	m.unspliceHead(q, ch, 1)
	m.next[ch.Tail] = nilSeg
	return ch, nil
}

// LinkPacketTail links a chain (from UnlinkHeadPacket on a manager sharing
// this store) onto the tail of q. The destination's per-queue segment cap
// applies; on ErrQueueLimit the chain is untouched and the caller should
// restore it with LinkPacketHead on the source.
func (m *Manager) LinkPacketTail(q QueueID, ch PacketChain) error {
	if err := m.checkQueue(q); err != nil {
		return err
	}
	if !m.admissible(q, ch.Segs) {
		return fmt.Errorf("%w: queue %d cannot accept %d segments", ErrQueueLimit, q, ch.Segs)
	}
	m.splice(q, ch, 1, false)
	return nil
}

// splice links a nil-terminated chain holding pkts complete packets into q,
// at the tail or (atHead) in front of the head: one queue-table and
// accounting update whatever the chain's length. pkts is 1 on every packet
// path; a lone segment passes its EOP bit (segChain).
func (m *Manager) splice(q QueueID, ch PacketChain, pkts int32, atHead bool) {
	switch {
	case m.qtail[q] == nilSeg:
		m.qhead[q], m.qtail[q] = int32(ch.Head), int32(ch.Tail)
	case atHead:
		m.next[ch.Tail] = m.qhead[q]
		m.qhead[q] = int32(ch.Head)
	default:
		m.next[m.qtail[q]] = int32(ch.Head)
		m.qtail[q] = int32(ch.Tail)
	}
	m.qsegs[q] += int32(ch.Segs)
	m.qbytes[q] += int32(ch.Bytes)
	m.qpkts[q] += pkts
	m.queuedSegs += int32(ch.Segs)
	m.totalBytes += int64(ch.Bytes)
	m.fixLongest(q)
}

// unspliceHead takes the head chain ch, holding pkts complete packets (see
// splice), out of q's table and accounting. The chain's own links are left
// alone.
func (m *Manager) unspliceHead(q QueueID, ch PacketChain, pkts int32) {
	m.qhead[q] = m.next[ch.Tail]
	if m.qhead[q] == nilSeg {
		m.qtail[q] = nilSeg
	}
	m.qsegs[q] -= int32(ch.Segs)
	m.qbytes[q] -= int32(ch.Bytes)
	m.qpkts[q] -= pkts
	m.queuedSegs -= int32(ch.Segs)
	m.totalBytes -= int64(ch.Bytes)
	m.fixLongest(q)
}

// LinkPacketHead links a chain back at the head of q — the rollback path
// when a transfer's destination refuses the packet. It bypasses the
// per-queue cap (the packet is being restored, not admitted) and cannot
// fail, so a refused cross-shard move is all-or-nothing.
func (m *Manager) LinkPacketHead(q QueueID, ch PacketChain) error {
	if err := m.checkQueue(q); err != nil {
		return err
	}
	m.splice(q, ch, 1, true)
	return nil
}
