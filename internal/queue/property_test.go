package queue

import (
	"bytes"
	"testing"
	"testing/quick"

	"npqm/internal/xrand"
)

// model is a trivially correct reference implementation: per-queue slices of
// (payload, eop) records plus a free-capacity counter.
type model struct {
	queues   [][]modelSeg
	capacity int
}

type modelSeg struct {
	payload []byte
	eop     bool
}

func newModel(queues, segs int) *model {
	return &model{queues: make([][]modelSeg, queues), capacity: segs}
}

func (mo *model) used() int {
	n := 0
	for _, q := range mo.queues {
		n += len(q)
	}
	return n
}

// TestRandomOpsAgainstModel drives the Manager with a long random operation
// sequence and cross-checks every observable result against the reference
// model, validating pointer invariants as it goes.
func TestRandomOpsAgainstModel(t *testing.T) {
	const (
		numQueues = 6
		numSegs   = 40
		steps     = 8000
	)
	rng := xrand.New(2025)
	m, err := New(Config{NumQueues: numQueues, NumSegments: numSegs, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	mo := newModel(numQueues, numSegs)

	randPayload := func() []byte {
		n := 1 + rng.Intn(SegmentBytes)
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		return p
	}

	for step := 0; step < steps; step++ {
		q := QueueID(rng.Intn(numQueues))
		switch rng.Intn(8) {
		case 0, 1: // Enqueue segment
			p := randPayload()
			eop := rng.Bool(0.5)
			_, err := m.Enqueue(q, p, eop)
			if mo.used() >= mo.capacity {
				if err == nil {
					t.Fatalf("step %d: enqueue succeeded on full pool", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: enqueue failed: %v", step, err)
				}
				mo.queues[q] = append(mo.queues[q], modelSeg{p, eop})
			}
		case 2: // Dequeue
			info, data, err := m.Dequeue(q)
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: dequeue succeeded on empty queue", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: dequeue failed: %v", step, err)
				}
				want := mo.queues[q][0]
				mo.queues[q] = mo.queues[q][1:]
				if !bytes.Equal(data, want.payload) || info.EOP != want.eop {
					t.Fatalf("step %d: dequeue mismatch", step)
				}
			}
		case 3: // ReadHead
			info, data, err := m.ReadHead(q)
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: read succeeded on empty queue", step)
				}
			} else {
				want := mo.queues[q][0]
				if err != nil || !bytes.Equal(data, want.payload) || info.EOP != want.eop {
					t.Fatalf("step %d: read mismatch (%v)", step, err)
				}
			}
		case 4: // DeleteSegment
			err := m.DeleteSegment(q)
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: delete succeeded on empty queue", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: delete failed: %v", step, err)
				}
				mo.queues[q] = mo.queues[q][1:]
			}
		case 5: // Overwrite head
			p := randPayload()
			err := m.Overwrite(q, p)
			if len(mo.queues[q]) == 0 {
				if err == nil {
					t.Fatalf("step %d: overwrite succeeded on empty queue", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: overwrite failed: %v", step, err)
				}
				mo.queues[q][0].payload = p
			}
		case 6: // MovePacket
			to := QueueID(rng.Intn(numQueues))
			// The model moves the head packet if one exists.
			pktLen := 0
			for i, s := range mo.queues[q] {
				if s.eop {
					pktLen = i + 1
					break
				}
			}
			n, err := m.MovePacket(q, to)
			if pktLen == 0 {
				if err == nil {
					t.Fatalf("step %d: move succeeded without a packet", step)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: move failed: %v", step, err)
				}
				if n != pktLen {
					t.Fatalf("step %d: moved %d segments, want %d", step, n, pktLen)
				}
				if q != to {
					pkt := mo.queues[q][:pktLen]
					mo.queues[to] = append(mo.queues[to], pkt...)
					mo.queues[q] = mo.queues[q][pktLen:]
				} else if pktLen < len(mo.queues[q]) {
					pkt := append([]modelSeg(nil), mo.queues[q][:pktLen]...)
					mo.queues[q] = append(mo.queues[q][pktLen:], pkt...)
				}
			}
		case 7: // DeletePacket
			pktLen := 0
			for i, s := range mo.queues[q] {
				if s.eop {
					pktLen = i + 1
					break
				}
			}
			n, err := m.DeletePacket(q)
			if pktLen == 0 {
				if err == nil {
					t.Fatalf("step %d: delete-packet succeeded without a packet", step)
				}
			} else {
				if err != nil || n != pktLen {
					t.Fatalf("step %d: delete-packet n=%d err=%v want %d", step, n, err, pktLen)
				}
				mo.queues[q] = mo.queues[q][pktLen:]
			}
		}

		// Cheap consistency checks every step, full invariants periodically.
		if m.FreeSegments() != mo.capacity-mo.used() {
			t.Fatalf("step %d: free count %d, model %d", step, m.FreeSegments(), mo.capacity-mo.used())
		}
		for qq := 0; qq < numQueues; qq++ {
			n, _ := m.Len(QueueID(qq))
			if n != len(mo.queues[qq]) {
				t.Fatalf("step %d: queue %d len %d, model %d", step, qq, n, len(mo.queues[qq]))
			}
		}
		if step%500 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPacketRoundTrip uses testing/quick to fuzz packet payloads
// through segmentation and reassembly.
func TestQuickPacketRoundTrip(t *testing.T) {
	m, err := New(Config{NumQueues: 2, NumSegments: 1024, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 1000*SegmentBytes {
			return true
		}
		if _, err := m.EnqueuePacket(0, data); err != nil {
			return false
		}
		got, _, err := m.DequeuePacket(0)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) && m.FreeSegments() == 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConservation fuzzes interleavings of single-segment enqueues and
// deletes and checks segment conservation.
func TestQuickConservation(t *testing.T) {
	f := func(ops []byte) bool {
		m, err := New(Config{NumQueues: 4, NumSegments: 16})
		if err != nil {
			return false
		}
		for _, op := range ops {
			q := QueueID(op % 4)
			if op&4 == 0 {
				if _, err := m.Enqueue(q, []byte{op}, op&8 == 0); err != nil {
					// Only acceptable failure is pool exhaustion.
					if m.FreeSegments() != 0 {
						return false
					}
				}
			} else if err := m.DeleteSegment(q); err != nil {
				// Only acceptable failure is an empty queue.
				if n, _ := m.Len(q); n != 0 {
					return false
				}
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	m, _ := New(Config{NumQueues: 1024, NumSegments: 4096})
	payload := make([]byte, SegmentBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := QueueID(i % 1024)
		if _, err := m.Enqueue(q, payload, true); err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Dequeue(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMovePacket(b *testing.B) {
	m, _ := New(Config{NumQueues: 2, NumSegments: 64})
	payload := make([]byte, SegmentBytes)
	m.Enqueue(0, payload, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := QueueID(i%2), QueueID((i+1)%2)
		if _, err := m.MovePacket(from, to); err != nil {
			b.Fatal(err)
		}
	}
}
