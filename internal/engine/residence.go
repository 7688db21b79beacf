package engine

// Residence-time sampling: how long a packet sits between enqueue and
// dequeue. Every Nth enqueued packet per shard is stamped from the engine's
// clock; when that same packet is later dequeued the elapsed time lands in a
// per-shard stats.Histogram (log-scale, quantiles within 25%, 1.3 KB),
// merged across shards by Stats. Sampled packets are identified by (flow,
// per-flow packet sequence number), which survives reassembly and needs no
// per-segment storage: per-flow FIFO order makes the k-th packet enqueued
// on a flow exactly the k-th packet removed from it. A shard numbers its
// flows by their row in its queue table (shard.row), so the sequences are
// per row and the sampler is as long as the table.
//
// The bookkeeping is owned by whoever holds the shard's lock, so it needs
// no atomics; the histogram brings its own, which lets Stats read it from
// outside the lock. The non-sampled fast path costs two array increments
// and a map-emptiness check per packet and reads no clock; the map holds
// only in-flight sampled packets.
//
// MovePacket keeps the sequence spaces aligned by treating a move as a
// removal from the source flow and an unsampled arrival on the destination.
// The one approximation: a failed cross-shard move relinks the packet at
// the *head* of its source queue, out of arrival order, so a sample on a
// flow behind such a rollback can pair with a neighboring packet of the
// same flow. Samples stay samples; at worst a rare pairing is off by one
// packet in time.

import (
	"npqm/internal/queue"
	"npqm/internal/stats"
)

// residence is one shard's sampler state.
type residence struct {
	every  uint32 // sample every Nth enqueued packet
	tick   uint32
	clk    clock
	enqSeq []uint32         // per-row packets ever enqueued
	deqSeq []uint32         // per-row packets ever removed
	pend   map[uint64]int64 // (row<<32|seq) -> enqueue stamp
	hist   stats.Histogram  // residence samples in ns
}

func newResidence(every, rows int, clk clock) *residence {
	return &residence{
		every:  uint32(every),
		clk:    clk,
		enqSeq: make([]uint32, rows),
		deqSeq: make([]uint32, rows),
		pend:   make(map[uint64]int64),
	}
}

func resKey(row queue.QueueID, seq uint32) uint64 { return uint64(row)<<32 | uint64(seq) }

// noteEnqueue records a packet arrival on row, stamping every Nth.
func (r *residence) noteEnqueue(row queue.QueueID) {
	r.enqSeq[row]++
	r.tick++
	if r.tick >= r.every {
		r.tick = 0
		r.pend[resKey(row, r.enqSeq[row])] = r.clk.now()
	}
}

// noteTransfer records an arrival that is not a fresh enqueue (a moved
// packet): the sequence space advances, unsampled.
func (r *residence) noteTransfer(row queue.QueueID) { r.enqSeq[row]++ }

// noteRemove records a head-packet removal from row. Only genuine
// dequeues record a residence sample; deletes, push-outs and moves merely
// retire the sequence number (and any pending stamp on it).
func (r *residence) noteRemove(row queue.QueueID, dequeued bool) {
	r.deqSeq[row]++
	if len(r.pend) == 0 {
		return
	}
	k := resKey(row, r.deqSeq[row])
	if t0, ok := r.pend[k]; ok {
		delete(r.pend, k)
		if dequeued {
			r.hist.Add(r.clk.now() - t0)
		}
	}
}
