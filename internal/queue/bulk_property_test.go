package queue

import (
	"fmt"
	"testing"

	"npqm/internal/segstore"
	"npqm/internal/xrand"
)

// Property tests for the vectorized packet path (bulk run allocation in
// EnqueuePacket, whole-chain FreeN in dequeue/drop/push-out). The pools are
// deliberately tiny and the magazine size small, so packets routinely span
// magazine boundaries (FreeN carves and spills mid-chain) and the pool runs
// dry mid-sequence. Run with -race: the concurrent variant is the only way
// to reach EnqueuePacket's short-AllocN unwind, which needs another owner
// draining the depot between the reservation check and the grab.

// bulkOps is one random packet command on nq queues, packets up to
// maxSegs segments.
func bulkOps(h *harness, rng *xrand.Source, nq, maxSegs int) {
	q := rng.Intn(nq)
	switch rng.Intn(8) {
	case 0, 1, 2, 3:
		h.do(oEnqueuePacket, q, 1+rng.Intn(maxSegs*SegmentBytes))
	case 4, 5:
		h.do(oDequeuePacket, q)
	case 6:
		h.do(oDeletePacket, q)
	case 7:
		h.do(oPushOut)
	}
}

// TestBulkPathConservesAgainstModel drives one manager over a shared store
// with a random packet-command sequence, held to the model after every
// step. MagazineSize 8 with packets up to 24 segments makes every large
// FreeN cross magazine boundaries; queue 0 is capped at 10 segments.
func TestBulkPathConservesAgainstModel(t *testing.T) {
	h := newShared(t, 6, 96, 8, 1)
	h.do(oTracking, 1).do(oLimit, 0, 10)
	rng := xrand.New(808)
	for range 12000 {
		bulkOps(h, rng, 6, 24)
	}
}

// TestBulkPathConcurrentExhaustion runs four single-writer managers over one
// deliberately undersized shared store, each on its own harness. Each
// worker's queues stay exact against its model (per-flow FIFO and payload
// bytes) even while the pool thrashes; whether a packet finds room is
// genuinely racy, so the harness leaves that to the manager. This is the
// path that exercises EnqueuePacket's partial-run unwind: a worker's
// reservation check passes, another worker drains the depot, AllocN comes
// up short, and the partial run must go back in one FreeN without touching
// the queue. Afterwards everything drains and the store must hold exactly
// the full pool again.
func TestBulkPathConcurrentExhaustion(t *testing.T) {
	const workers, nq, pool = 4, 4, 160
	st, err := segstore.New(segstore.Config{NumSegments: pool, MagazineSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	caches := make([]*segstore.Cache, workers)
	for w := range caches {
		caches[w] = st.NewCache()
	}
	t.Run("workers", func(t *testing.T) {
		for w, c := range caches {
			t.Run(fmt.Sprint(w), func(t *testing.T) {
				t.Parallel()
				m, err := NewWithStore(Config{NumQueues: nq}, c)
				if err != nil {
					t.Fatal(err)
				}
				h := &harness{t: t, ms: []*Manager{m}, mo: newModel(1, nq, pool, false), racy: true}
				h.do(oTracking, 1)
				rng := xrand.New(uint64(1000 + w))
				for range 4000 {
					bulkOps(h, rng, nq, 20)
				}
				for q := range nq {
					for len(h.mo.ms[0].queues[q]) > 0 {
						h.do(oDequeuePacket, q)
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	// Hand every cached magazine back; the pool must be whole again.
	for _, c := range caches {
		c.Flush()
	}
	if free := st.Free(); free != pool {
		t.Errorf("pool holds %d free segments after full drain, want %d", free, pool)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
