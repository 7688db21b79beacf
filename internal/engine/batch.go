package engine

// This file implements the batched command path. A network processor never
// handles one packet at a time: the dispatch loop pulls a burst from the
// receive ring and issues the whole burst at once. Batching matters to the
// sharded engine for the same reason hardware pipelining matters to the
// MMS — the fixed per-command overhead is paid once per shard per burst
// instead of once per packet: one mutex acquisition (and one drain of the
// shard's posted enqueues) per shard a burst touches.

// EnqueueReq is one packet of an EnqueueBatch.
type EnqueueReq struct {
	Flow uint32
	Data []byte
}

// buckets groups batch indices by owning shard so each shard is entered
// once. The bucket slices — and the error scratch batch walks record
// outcomes in — are recycled between calls through a pool.
type buckets struct {
	byShard [][]int32
	errs    []error // all-nil between uses; handed to the caller on failure
}

func (e *Engine) getBuckets() *buckets {
	if v := e.bucketPool.Get(); v != nil {
		b := v.(*buckets)
		if len(b.byShard) == len(e.shards) {
			return b
		}
	}
	return &buckets{byShard: make([][]int32, len(e.shards))}
}

func (e *Engine) putBuckets(b *buckets) {
	for i := range b.byShard {
		b.byShard[i] = b.byShard[i][:0]
	}
	e.bucketPool.Put(b)
}

// errSlots returns the recycled error scratch, grown to n all-nil slots.
// The scratch stays pooled only while it holds no errors: a batch that
// fails hands the slice to its caller (see EnqueueBatch), so pooled
// scratches are all-nil by construction — error slots are never scrubbed on
// the happy path.
func (b *buckets) errSlots(n int) []error {
	if cap(b.errs) < n {
		b.errs = make([]error, n)
	}
	return b.errs[:n]
}

// EnqueueBatch enqueues every request in batch, bucketing by shard and
// entering each shard once. A nil errs means every packet was accepted;
// otherwise errs is aligned with the batch and errs[i] is nil when batch[i]
// was accepted. Relative order of packets on the same flow is preserved, so
// per-flow FIFO holds across batches too. It returns the total number of
// segments linked.
//
// The all-accepted path performs no allocation: outcomes are recorded in a
// pooled scratch that is recycled when it comes back clean and handed to
// the caller (replaced lazily) when it does not.
//
// Every arrival is settled where it stands in its bucket (see arrive), LQD
// push-out included. A Close landing mid-batch refuses the rest of it.
func (e *Engine) EnqueueBatch(batch []EnqueueReq) (segments int, errs []error) {
	if len(batch) == 0 {
		return 0, nil
	}
	b := e.getBuckets()
	errs = b.errSlots(len(batch))
	for i, req := range batch {
		si := e.ShardOf(req.Flow)
		b.byShard[si] = append(b.byShard[si], int32(i))
	}
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		held := e.enter(s)
		for _, i := range idxs {
			if !held {
				errs[i] = ErrClosed
				continue
			}
			var n int
			n, held, errs[i] = e.arrive(s, batch[i].Flow, batch[i].Data, len(batch[i].Data), nil, false)
			segments += n
		}
		if held {
			s.unlock()
		}
	}
	for _, err := range errs {
		if err != nil {
			// The scratch escapes to the caller; drop it from the pool so
			// the recycled scratch invariant (all slots nil) holds.
			b.errs = nil
			e.putBuckets(b)
			return segments, errs
		}
	}
	e.putBuckets(b)
	return segments, nil
}

// DequeueBatch dequeues the head packet of every listed flow, bucketing by
// shard. Results are aligned with flows: pkts[i] is the reassembled payload
// (from the engine's buffer pool — Release it when done) and errs[i] is nil
// on success. A flow listed twice yields its first two packets in order.
func (e *Engine) DequeueBatch(flows []uint32) (pkts [][]byte, errs []error) {
	if len(flows) == 0 {
		return nil, nil
	}
	pkts = make([][]byte, len(flows))
	return pkts, e.dequeueBatch(flows, pkts, nil)
}

// dequeueBatch is DequeueBatch (pkts) and DequeueViewBatch (views): exactly
// one of the two result slices is non-nil, and which one is the delivery
// form. Each touched shard is entered once and the bucket's takes fill
// their result slots directly.
func (e *Engine) dequeueBatch(flows []uint32, pkts [][]byte, views []PacketView) []error {
	errs := make([]error, len(flows))
	b := e.getBuckets()
	for i, flow := range flows {
		si := e.ShardOf(flow)
		b.byShard[si] = append(b.byShard[si], int32(i))
	}
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		if !e.enter(s) {
			for _, i := range idxs {
				errs[i] = ErrClosed
			}
			continue
		}
		var d Dequeued
		for _, i := range idxs {
			if !e.inSpace(flows[i]) {
				errs[i] = e.badFlow(flows[i])
				continue
			}
			errs[i] = s.take(&d, flows[i], views != nil, unpicked)
			if views != nil {
				views[i] = d.View
			} else {
				pkts[i] = d.Data
			}
		}
		s.unlock()
	}
	e.putBuckets(b)
	return errs
}
