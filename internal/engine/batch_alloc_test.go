package engine

import (
	"testing"

	"npqm/internal/queue"
)

// The batch enqueue path must not allocate per call when every packet is
// accepted: bucket slices are pooled, the error slice is made only at the
// first refusal, and the queue layer builds chains from a reusable run
// buffer. Pinned here so a stray make() on the burst path shows up as a
// test failure instead of a benchmark regression.
func TestEnqueueBatchNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts by design; alloc pin is meaningless")
	}
	// The pool holds every packet the measured runs enqueue (101 bursts of
	// 32 MTU packets, 24 segments each), so the measured function is pure
	// accepted-path EnqueueBatch with no draining in the loop.
	e := newTest(t, 4, 64, 1<<17)
	pkt := make([]byte, 1500)
	batch := make([]EnqueueReq, 32)
	for i := range batch {
		batch[i] = EnqueueReq{Flow: uint32(i % 16), Data: pkt}
	}
	// Warm the pools (buckets, per-manager run buffers)
	// before measuring.
	if _, errs := e.EnqueueBatch(batch); errs != nil {
		t.Fatalf("warmup enqueue failed: %v", errs)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, errs := e.EnqueueBatch(batch)
		if errs != nil {
			t.Fatalf("batch enqueue failed: %v", errs)
		}
	})
	if allocs > 0 {
		t.Errorf("EnqueueBatch allocated %.1f times per burst, want 0", allocs)
	}
	// Drain everything back and check conservation end to end.
	flows := make([]uint32, len(batch))
	for i := range flows {
		flows[i] = batch[i].Flow
	}
	for e.Stats().QueuedSegments > 0 {
		pkts, _ := e.DequeueBatch(flows)
		got := false
		for _, p := range pkts {
			if p != nil {
				got = true
				e.ReleaseBuffer(p)
			}
		}
		if !got {
			break
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A batch that fails keeps the aligned-errs contract: the returned slice
// matches the batch and only the refused slots are non-nil. The slice
// that recorded the failure is the caller's: a later clean batch must not
// scrub or reuse it.
func TestEnqueueBatchErrAliasing(t *testing.T) {
	e := newTest(t, 2, 64, 64)
	big := make([]byte, 65*queue.SegmentBytes) // more than the whole pool
	_, errs := e.EnqueueBatch([]EnqueueReq{
		{Flow: 1, Data: make([]byte, 64)},
		{Flow: 2, Data: big},
	})
	if errs == nil || errs[1] == nil {
		t.Fatalf("oversized packet not refused: %v", errs)
	}
	held := errs // caller retains the error slice
	if _, errs := e.EnqueueBatch([]EnqueueReq{{Flow: 3, Data: make([]byte, 64)}}); errs != nil {
		t.Fatalf("clean batch returned errors: %v", errs)
	}
	if held[1] == nil {
		t.Error("held error slice was scrubbed by a later batch")
	}
}
