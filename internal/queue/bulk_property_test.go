package queue

import (
	"bytes"
	"errors"
	"sync"
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

// pktModel is the reference: a packet is just its payload; segments and
// bytes are derived, never tracked incrementally.
type pktModel struct {
	queues [][][]byte
}

func newPktModel(queues int) *pktModel {
	return &pktModel{queues: make([][][]byte, queues)}
}

func pktSegs(p []byte) int { return (len(p) + SegmentBytes - 1) / SegmentBytes }

func (mo *pktModel) segs(q int) int {
	n := 0
	for _, p := range mo.queues[q] {
		n += pktSegs(p)
	}
	return n
}

func (mo *pktModel) totalSegs() int {
	n := 0
	for q := range mo.queues {
		n += mo.segs(q)
	}
	return n
}

func (mo *pktModel) totalBytes() int {
	n := 0
	for _, q := range mo.queues {
		for _, p := range q {
			n += len(p)
		}
	}
	return n
}

// longest mirrors the manager's heap ordering: most segments wins, ties
// broken by the lower queue ID.
func (mo *pktModel) longest() (int, bool) {
	best, bestSegs := -1, 0
	for q := range mo.queues {
		if s := mo.segs(q); s > bestSegs {
			best, bestSegs = q, s
		}
	}
	return best, best >= 0
}

func (mo *pktModel) dropHead(q int) []byte {
	p := mo.queues[q][0]
	mo.queues[q] = mo.queues[q][1:]
	return p
}

// TestBulkPathConservesAgainstModel drives one manager over a shared store
// with a random packet-op sequence and cross-checks every outcome — success
// or refusal, payload bytes, free count, buffered bytes —
// against the reference model. MagazineSize 8 with packets up to 24 segments
// makes every large FreeN cross magazine boundaries.
func TestBulkPathConservesAgainstModel(t *testing.T) {
	const (
		numQueues = 6
		numSegs   = 96
		magSize   = 8
		maxPktSeg = 24
		steps     = 12000
		limitedQ  = 0
		qLimit    = 10
	)
	st, err := segstore.New(segstore.Config{
		NumSegments:  numSegs,
		SegmentBytes: SegmentBytes,
		StoreData:    true,
		MagazineSize: magSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewWithStore(Config{NumQueues: numQueues}, st.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	m.SetLongestTracking(true)
	if err := m.SetSegmentLimit(limitedQ, qLimit); err != nil {
		t.Fatal(err)
	}
	mo := newPktModel(numQueues)
	rng := xrand.New(808)

	randPkt := func() []byte {
		n := 1 + rng.Intn(maxPktSeg*SegmentBytes)
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		return p
	}

	for step := 0; step < steps; step++ {
		q := rng.Intn(numQueues)
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // EnqueuePacket
			p := randPkt()
			needed := pktSegs(p)
			_, err := m.EnqueuePacket(QueueID(q), p)
			switch {
			// Refusals follow the manager's own check order: admission
			// first, then the reservation against the free pool.
			case q == limitedQ && mo.segs(q)+needed > qLimit:
				if !errors.Is(err, ErrQueueLimit) {
					t.Fatalf("step %d: want ErrQueueLimit, got %v", step, err)
				}
			case needed > numSegs-mo.totalSegs():
				if !errors.Is(err, ErrNoFreeSegments) {
					t.Fatalf("step %d: want ErrNoFreeSegments, got %v", step, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d: enqueue of %d segs failed with %d free: %v",
						step, needed, numSegs-mo.totalSegs(), err)
				}
				mo.queues[q] = append(mo.queues[q], p)
			}
		case 4, 5: // DequeuePacket
			data, n, err := m.DequeuePacket(QueueID(q))
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: dequeue succeeded on empty queue", step)
				}
				continue
			}
			want := mo.queues[q][0]
			mo.queues[q] = mo.queues[q][1:]
			if err != nil || n != pktSegs(want) || !bytes.Equal(data, want) {
				t.Fatalf("step %d: dequeue = (%d segs, %v), want %d segs, payload match %v",
					step, n, err, pktSegs(want), bytes.Equal(data, want))
			}
		case 6: // DeletePacket
			n, err := m.DeletePacket(QueueID(q))
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: drop succeeded on empty queue", step)
				}
				continue
			}
			p := mo.dropHead(q)
			if err != nil || n != pktSegs(p) {
				t.Fatalf("step %d: drop = (%d, %v), want %d segs", step, n, err, pktSegs(p))
			}
		case 7: // PushOutLongest
			victim, ok := mo.longest()
			vq, n, err := m.PushOutLongest()
			if !ok {
				if err == nil {
					t.Fatalf("step %d: push-out succeeded with all queues empty", step)
				}
				continue
			}
			if err != nil || int(vq) != victim {
				t.Fatalf("step %d: push-out = (q%d, %v), model victim q%d", step, vq, err, victim)
			}
			if p := mo.dropHead(victim); n != pktSegs(p) {
				t.Fatalf("step %d: push-out freed %d segs, want %d", step, n, pktSegs(p))
			}
		}

		// Conservation every step: the bulk paths publish once per op, so
		// the pool-wide free count is exact between operations.
		if free := m.FreeSegments(); free != numSegs-mo.totalSegs() {
			t.Fatalf("step %d: free %d, model %d", step, free, numSegs-mo.totalSegs())
		}
		if m.TotalBuffered() != mo.totalBytes() {
			t.Fatalf("step %d: buffered %d bytes, model %d", step, m.TotalBuffered(), mo.totalBytes())
		}
		for qq := 0; qq < numQueues; qq++ {
			if n, _ := m.Len(QueueID(qq)); n != mo.segs(qq) {
				t.Fatalf("step %d: queue %d holds %d segs, model %d", step, qq, n, mo.segs(qq))
			}
		}
		if step%500 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkPathConcurrentExhaustion runs four single-writer managers over one
// deliberately undersized shared store. Each worker checks its own queues
// against a private model (per-flow FIFO and payload bytes stay exact even
// while the pool thrashes); enqueue admission is genuinely racy, so only the
// failure mode is asserted. This is the path that exercises EnqueuePacket's
// partial-run unwind: a worker's reservation check passes, another worker
// drains the depot, AllocN comes up short, and the partial run must go back
// in one FreeN without touching the queue. Afterwards everything drains and
// the store must hold exactly the full pool again.
func TestBulkPathConcurrentExhaustion(t *testing.T) {
	const (
		workers   = 4
		numQueues = 4
		numSegs   = 160
		magSize   = 8
		maxPktSeg = 20
		opsEach   = 4000
	)
	st, err := segstore.New(segstore.Config{
		NumSegments:  numSegs,
		SegmentBytes: SegmentBytes,
		StoreData:    true,
		MagazineSize: magSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgrs := make([]*Manager, workers)
	caches := make([]*segstore.Cache, workers)
	for w := range mgrs {
		caches[w] = st.NewCache()
		if mgrs[w], err = NewWithStore(Config{NumQueues: numQueues}, caches[w]); err != nil {
			t.Fatal(err)
		}
		mgrs[w].SetLongestTracking(true)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := mgrs[w]
			mo := newPktModel(numQueues)
			rng := xrand.New(uint64(1000 + w))
			fail := func(format string, args ...any) {
				t.Errorf(format, args...)
			}
			for step := 0; step < opsEach; step++ {
				q := rng.Intn(numQueues)
				switch rng.Intn(8) {
				case 0, 1, 2, 3: // EnqueuePacket — success is racy, failure mode is not
					n := 1 + rng.Intn(maxPktSeg*SegmentBytes)
					p := make([]byte, n)
					for i := range p {
						p[i] = byte(rng.Uint32())
					}
					if _, err := m.EnqueuePacket(QueueID(q), p); err != nil {
						if !errors.Is(err, ErrNoFreeSegments) {
							fail("worker %d step %d: unexpected enqueue error %v", w, step, err)
							return
						}
					} else {
						mo.queues[q] = append(mo.queues[q], p)
					}
				case 4, 5: // DequeuePacket — exact per-worker FIFO
					data, n, err := m.DequeuePacket(QueueID(q))
					if len(mo.queues[q]) == 0 {
						if err == nil {
							fail("worker %d step %d: dequeue succeeded on empty queue", w, step)
							return
						}
						continue
					}
					want := mo.queues[q][0]
					mo.queues[q] = mo.queues[q][1:]
					if err != nil || n != pktSegs(want) || !bytes.Equal(data, want) {
						fail("worker %d step %d: dequeue mismatch (%d segs, %v)", w, step, n, err)
						return
					}
				case 6: // DeletePacket
					n, err := m.DeletePacket(QueueID(q))
					if len(mo.queues[q]) == 0 {
						if err == nil {
							fail("worker %d step %d: drop succeeded on empty queue", w, step)
							return
						}
						continue
					}
					if p := mo.dropHead(q); err != nil || n != pktSegs(p) {
						fail("worker %d step %d: drop = (%d, %v)", w, step, n, err)
						return
					}
				case 7: // PushOutLongest within this worker's own queues
					victim, ok := mo.longest()
					vq, n, err := m.PushOutLongest()
					if !ok {
						if err == nil {
							fail("worker %d step %d: push-out succeeded with all queues empty", w, step)
							return
						}
						continue
					}
					if err != nil || int(vq) != victim {
						fail("worker %d step %d: push-out = (q%d, %v), model q%d", w, step, vq, err, victim)
						return
					}
					if p := mo.dropHead(victim); n != pktSegs(p) {
						fail("worker %d step %d: push-out freed %d segs", w, step, n)
						return
					}
				}
			}
			// Drain every queue, verifying residual FIFO contents.
			for q := 0; q < numQueues; q++ {
				for len(mo.queues[q]) > 0 {
					want := mo.queues[q][0]
					mo.queues[q] = mo.queues[q][1:]
					data, n, err := m.DequeuePacket(QueueID(q))
					if err != nil || n != pktSegs(want) || !bytes.Equal(data, want) {
						fail("worker %d drain q%d: (%d segs, %v)", w, q, n, err)
						return
					}
				}
				if n, _ := m.Len(QueueID(q)); n != 0 {
					fail("worker %d: queue %d not empty after drain (%d segs)", w, q, n)
					return
				}
			}
			if err := m.CheckInvariants(); err != nil {
				fail("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Hand every cached magazine back; the pool must be whole again.
	for _, c := range caches {
		c.Flush()
	}
	if free := st.Free(); free != numSegs {
		t.Errorf("pool holds %d free segments after full drain, want %d", free, numSegs)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
