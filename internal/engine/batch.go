package engine

import (
	"errors"

	"npqm/internal/queue"
)

// This file implements the batched command path. A network processor never
// handles one packet at a time: the dispatch loop pulls a burst from the
// receive ring and issues the whole burst at once. Batching matters to the
// sharded engine for the same reason hardware pipelining matters to the
// MMS — the fixed per-command overhead is paid once per shard per burst
// instead of once per packet. On the synchronous datapath that overhead is
// a mutex acquisition; on the ring datapath it is one posted command and
// one shared completion countdown per shard touched, so a 64-packet burst
// costs the producer a handful of ring slots and a single wakeup.

// EnqueueReq is one packet of an EnqueueBatch.
type EnqueueReq struct {
	Flow uint32
	Data []byte
}

// errRingRetry marks a batch slot the worker deliberately left unprocessed
// (a stop-the-bucket condition was hit earlier in the same bucket); the
// poster replays those slots in order through the per-packet path. Never
// escapes to callers.
var errRingRetry = errors.New("engine: batch slot deferred to per-packet path")

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
// On the ring datapath an LQD arrival that needs push-out eviction degrades
// the batch to the per-packet path for the rest of that shard's bucket: the
// worker cannot visit the victim's shard, and processing later same-flow
// packets inline would break per-flow FIFO. The synchronous bucket walk
// settles every arrival where it stands (see arrive).
func (e *Engine) EnqueueBatch(batch []EnqueueReq) (segments int, errs []error) {
	if len(batch) == 0 {
		return 0, nil
	}
	if e.mode.Load() == modeClosed {
		errs = make([]error, len(batch))
		for i := range errs {
			errs[i] = ErrClosed
		}
		return 0, errs
	}
	b := e.getBuckets()
	errs = b.errSlots(len(batch))
	for i, req := range batch {
		si := e.ShardOf(req.Flow)
		b.byShard[si] = append(b.byShard[si], int32(i))
	}
	if e.mode.Load() == modeRing {
		segments = e.enqueueBatchRing(batch, errs, b)
	} else {
		segments = e.enqueueBatchSync(batch, errs, b)
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

// enqueueBatchSync is the mutex-datapath bucket walk.
func (e *Engine) enqueueBatchSync(batch []EnqueueReq, errs []error, b *buckets) (segments int) {
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		slow := 0 // count of leading indices handled inside the bucket
		if held := e.lockSync(s); held {
			for _, i := range idxs {
				var n int
				if n, held, errs[i] = e.arrive(s, batch[i].Flow, batch[i].Data, len(batch[i].Data), nil); !held {
					break // left the sync datapath mid-arrival: s.mu is released
				}
				slow++
				segments += n
			}
			if held {
				s.unlock()
			}
		}
		// Everything the bucket walk did not finish — including the whole
		// bucket when the datapath switched under us — replays in order
		// through the per-packet path, which resolves the current mode.
		for _, i := range idxs[slow:] {
			n, err := e.EnqueuePacket(batch[i].Flow, batch[i].Data)
			if err != nil {
				errs[i] = err
				continue
			}
			segments += n
		}
	}
	return segments
}

// enqueueBatchRing posts one command per touched shard, all sharing one
// completion: the worker walks its bucket run-to-completion and the caller
// wakes once. Slots a worker could not finish inline (push-out eviction or
// a stranded pool) come back marked errRingRetry and replay in order
// through the per-packet path.
func (e *Engine) enqueueBatchRing(batch []EnqueueReq, errs []error, b *buckets) (segments int) {
	c := e.getCall()
	var want int32
	for _, idxs := range b.byShard {
		if len(idxs) > 0 {
			want++
		}
	}
	c.pending.Store(want + 1)
	posted := int32(0)
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		idxs := idxs
		cmd := command{kind: opCall, co: c, fn: func() {
			for k, i := range idxs {
				n, err := s.enqueueLocked(batch[i].Flow, batch[i].Data)
				if err == errWantPushOut || //nolint:errorlint // internal sentinel, never wrapped
					(err != nil && errors.Is(err, queue.ErrNoFreeSegments) && s.m.FreeSegments() > 0) {
					for _, j := range idxs[k:] {
						errs[j] = errRingRetry
					}
					return
				}
				if err != nil {
					errs[i] = err
					continue
				}
				c.segs.Add(int64(n))
			}
		}}
		if e.post(s, cmd) != nil {
			for _, i := range idxs {
				errs[i] = ErrClosed
			}
			continue
		}
		posted++
	}
	c.release(want - posted + 1)
	segments = int(c.segs.Load())
	e.putCall(c)
	// Replay the deferred slots in order; EnqueuePacket runs the eviction
	// or flush orchestration and re-resolves the datapath mode.
	for i := range errs {
		if errs[i] == errRingRetry { //nolint:errorlint // internal sentinel, never wrapped
			n, err := e.EnqueuePacket(batch[i].Flow, batch[i].Data)
			errs[i] = err
			if err == nil {
				segments += n
			}
		}
	}
	return segments
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
// form. Each touched shard is entered once, the way the datapath current at
// that moment allows — under its mutex, or as one posted command, all of a
// call's commands sharing one completion so the caller wakes once — and the
// bucket's takes fill their result slots directly.
func (e *Engine) dequeueBatch(flows []uint32, pkts [][]byte, views []PacketView) []error {
	errs := make([]error, len(flows))
	b := e.getBuckets()
	for i, flow := range flows {
		si := e.ShardOf(flow)
		b.byShard[si] = append(b.byShard[si], int32(i))
	}
	var c *call // the completion every posted bucket shares, taken on the first post
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		for {
			switch e.mode.Load() {
			case modeSync:
				if !e.lockSync(s) {
					continue // datapath switched under us: re-resolve the mode
				}
				s.takeEach(idxs, flows, pkts, views, errs)
				s.unlock()
			case modeRing:
				if c == nil {
					c = e.getCall()
					c.pending.Store(1) // the poster's hold, released below
				}
				c.pending.Add(1)
				if e.post(s, s.takeEachCmd(c, idxs, flows, pkts, views, errs)) == nil {
					break
				}
				c.pending.Add(-1)
				fallthrough
			default:
				for _, i := range idxs {
					errs[i] = ErrClosed
				}
			}
			break
		}
	}
	if c != nil {
		c.release(1)
		e.putCall(c)
	}
	e.putBuckets(b)
	return errs
}

// takeEachCmd is takeEach as a ring command under completion c. Its own
// function so that only a bucket that is posted pays for the closure.
func (s *shard) takeEachCmd(c *call, idxs []int32, flows []uint32, pkts [][]byte, views []PacketView, errs []error) command {
	return command{kind: opCall, co: c, fn: func() { s.takeEach(idxs, flows, pkts, views, errs) }}
}

// takeEach is one shard's bucket of a dequeueBatch, inside s's critical
// section: a take per listed index, filling its result slots.
func (s *shard) takeEach(idxs []int32, flows []uint32, pkts [][]byte, views []PacketView, errs []error) {
	var d Dequeued
	for _, i := range idxs {
		errs[i] = s.take(&d, flows[i], views != nil, unpicked)
		if views != nil {
			views[i] = d.View
		} else {
			pkts[i] = d.Data
		}
	}
}
