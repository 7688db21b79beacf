package queue

import (
	"testing"
	"testing/quick"

	"npqm/internal/xrand"
)

// TestRandomOpsAgainstModel drives one private manager with a long random
// mix of the single-segment and packet commands on a small pool, held to
// the model after every step.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := xrand.New(2025)
	h := newPrivate(t, 6, 40)
	for range 8000 {
		q, to, n := rng.Intn(6), rng.Intn(6), 1+rng.Intn(SegmentBytes)
		switch rng.Intn(8) {
		case 0, 1:
			h.do(oEnqueue, q, n, rng.Intn(2))
		case 2:
			h.do(oDequeue, q)
		case 3:
			h.do(oAppendHead, q, n, rng.Intn(2))
		case 4:
			h.do(oDeleteSegment, q)
		case 5:
			h.do(oOverwrite, q, n)
		case 6:
			h.do(oMove, q, to)
		case 7:
			h.do(oDeletePacket, q)
		}
	}
}

// TestSegmentCommandsReuseFIFO pins the reuse order the timed models'
// DDR-bank tables rest on: on a private pool every segment Enqueue and
// AppendHead take is the head of a FIFO free list — 0, 1, …, N−1 on a
// fresh pool — and every segment Dequeue and DeleteSegment give back joins
// its tail, whatever mix of the four commands runs. The model names each
// handle.
func TestSegmentCommandsReuseFIFO(t *testing.T) {
	const n = 8
	h := newPrivate(t, 3, n)
	rng := xrand.New(28)
	taken := 0
	for step := range 40 * n {
		op := []int{oEnqueue, oAppendHead, oDequeue, oDeleteSegment}[rng.Intn(4)]
		if h.do(op, rng.Intn(3), 1, step%2); (op == oEnqueue || op == oAppendHead) && h.err == nil {
			taken++
		}
	}
	if taken < 4*n {
		t.Fatalf("only %d segments taken: the pool did not cycle", taken)
	}
}

// TestQuickPacketRoundTrip runs testing/quick's packets through
// segmentation and reassembly.
func TestQuickPacketRoundTrip(t *testing.T) {
	h := newPrivate(t, 2, 1024)
	f := func(data []byte) bool {
		if len(data) > 0 && len(data) <= 1000*SegmentBytes {
			h.feed = data
			h.do(oEnqueuePacket, 0, len(data)).is(nil).do(oDequeuePacket, 0).is(nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConservation runs testing/quick's interleavings of
// single-segment enqueues and deletes on a 16-segment pool.
func TestQuickConservation(t *testing.T) {
	f := func(ops []byte) bool {
		h := newPrivate(t, 4, 16)
		for _, op := range ops {
			if op&4 == 0 {
				h.do(oEnqueue, int(op%4), 1, int(op>>3&1^1))
			} else {
				h.do(oDeleteSegment, int(op%4))
			}
		}
		return true
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
