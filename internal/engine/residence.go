package engine

// Residence-time sampling: how long a packet sits between enqueue and
// dequeue. Every Nth enqueued packet per shard is stamped from the engine's
// clock; when that same packet is later dequeued the elapsed time lands in a
// per-shard stats.Histogram (log-scale, quantiles within 25%, 1.3 KB),
// merged across shards by Stats. Sampled packets are identified by (flow,
// per-flow packet sequence number), which survives reassembly and needs no
// per-segment storage: per-flow FIFO order makes the k-th packet enqueued
// on a flow exactly the k-th packet removed from it.
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

import "npqm/internal/stats"

// residence is one shard's sampler state.
type residence struct {
	every  uint32 // sample every Nth enqueued packet
	tick   uint32
	clk    clock
	enqSeq []uint32         // per-flow packets ever enqueued
	deqSeq []uint32         // per-flow packets ever removed
	pend   map[uint64]int64 // (flow<<32|seq) -> enqueue stamp
	hist   stats.Histogram  // residence samples in ns
}

func newResidence(every, flows int, clk clock) *residence {
	return &residence{
		every:  uint32(every),
		clk:    clk,
		enqSeq: make([]uint32, flows),
		deqSeq: make([]uint32, flows),
		pend:   make(map[uint64]int64),
	}
}

func resKey(flow, seq uint32) uint64 { return uint64(flow)<<32 | uint64(seq) }

// noteEnqueue records a packet arrival on flow, stamping every Nth.
func (r *residence) noteEnqueue(flow uint32) {
	r.enqSeq[flow]++
	r.tick++
	if r.tick >= r.every {
		r.tick = 0
		r.pend[resKey(flow, r.enqSeq[flow])] = r.clk.now()
	}
}

// noteTransfer records an arrival that is not a fresh enqueue (a moved
// packet): the sequence space advances, unsampled.
func (r *residence) noteTransfer(flow uint32) { r.enqSeq[flow]++ }

// noteRemove records a head-packet removal from flow. Only genuine
// dequeues record a residence sample; deletes, push-outs and moves merely
// retire the sequence number (and any pending stamp on it).
func (r *residence) noteRemove(flow uint32, dequeued bool) {
	r.deqSeq[flow]++
	if len(r.pend) == 0 {
		return
	}
	k := resKey(flow, r.deqSeq[flow])
	if t0, ok := r.pend[k]; ok {
		delete(r.pend, k)
		if dequeued {
			r.hist.Add(r.clk.now() - t0)
		}
	}
}
