package queue

import (
	"bytes"
	"errors"
	"testing"

	"npqm/internal/xrand"
)

func newTestManager(t *testing.T, segs int) *Manager {
	t.Helper()
	m, err := New(Config{NumQueues: 8, NumSegments: segs, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustInvariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewDefaults(t *testing.T) {
	m, err := New(Config{NumSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumQueues() != DefaultNumQueues {
		t.Fatalf("default queues = %d", m.NumQueues())
	}
	if m.FreeSegments() != 4 {
		t.Fatalf("free = %d", m.FreeSegments())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NumSegments: 0}); err == nil {
		t.Fatal("expected error for zero segments")
	}
	if _, err := New(Config{NumQueues: -1, NumSegments: 4}); err == nil {
		t.Fatal("expected error for negative queues")
	}
}

func TestEnqueueDequeueRoundTrip(t *testing.T) {
	m := newTestManager(t, 16)
	payload := []byte("hello, queue manager")
	s, err := m.Enqueue(3, payload, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Nil() {
		t.Fatal("nil segment returned")
	}
	if n, _ := m.Len(3); n != 1 {
		t.Fatalf("len = %d", n)
	}
	mustInvariants(t, m)

	info, data, err := m.Dequeue(3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seg != s || info.Len != len(payload) || !info.EOP {
		t.Fatalf("info = %+v", info)
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("data = %q", data)
	}
	if m.FreeSegments() != 16 {
		t.Fatalf("segment not returned to free list: %d", m.FreeSegments())
	}
	mustInvariants(t, m)
}

func TestFIFOOrderWithinQueue(t *testing.T) {
	m := newTestManager(t, 32)
	for i := 0; i < 10; i++ {
		if _, err := m.Enqueue(0, []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		_, data, err := m.Dequeue(0)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Fatalf("dequeue %d returned %d", i, data[0])
		}
	}
}

func TestQueueIsolation(t *testing.T) {
	m := newTestManager(t, 32)
	m.Enqueue(1, []byte{1}, true)
	m.Enqueue(2, []byte{2}, true)
	m.Enqueue(1, []byte{11}, true)
	if n, _ := m.Len(1); n != 2 {
		t.Fatalf("queue 1 len = %d", n)
	}
	if n, _ := m.Len(2); n != 1 {
		t.Fatalf("queue 2 len = %d", n)
	}
	_, d, _ := m.Dequeue(2)
	if d[0] != 2 {
		t.Fatalf("queue 2 head = %d", d[0])
	}
	mustInvariants(t, m)
}

func TestDequeueEmpty(t *testing.T) {
	m := newTestManager(t, 4)
	if _, _, err := m.Dequeue(0); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadQueueID(t *testing.T) {
	m := newTestManager(t, 4)
	if _, err := m.Enqueue(99, []byte{1}, true); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := m.Dequeue(99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Len(99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestExhaustion(t *testing.T) {
	m := newTestManager(t, 3)
	for i := 0; i < 3; i++ {
		if _, err := m.Enqueue(0, []byte{1}, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Enqueue(0, []byte{1}, true); !errors.Is(err, ErrNoFreeSegments) {
		t.Fatalf("err = %v", err)
	}
	// Draining restores capacity.
	m.Dequeue(0)
	if _, err := m.Enqueue(0, []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
}

// TestPayloadValidation: an empty or oversized payload is refused with
// ErrBadLength by both single-segment commands before anything is
// allocated — on a pool with room, on a queue at its cap and on a dry pool
// alike — and leaves pool, queues and invariants as they were.
func TestPayloadValidation(t *testing.T) {
	m := newTestManager(t, 4)
	refuse := func(where string) {
		t.Helper()
		free, queued := m.FreeSegments(), m.QueuedSegments()
		for _, p := range [][]byte{nil, make([]byte, SegmentBytes+1)} {
			if _, err := m.Enqueue(1, p, true); !errors.Is(err, ErrBadLength) {
				t.Fatalf("%s: Enqueue of %d bytes = %v, want ErrBadLength", where, len(p), err)
			}
			if _, err := m.AppendHead(1, p, true); !errors.Is(err, ErrBadLength) {
				t.Fatalf("%s: AppendHead of %d bytes = %v, want ErrBadLength", where, len(p), err)
			}
		}
		if m.FreeSegments() != free || m.QueuedSegments() != queued {
			t.Fatalf("%s: refusals moved the books: free %d → %d, queued %d → %d",
				where, free, m.FreeSegments(), queued, m.QueuedSegments())
		}
		mustInvariants(t, m)
	}
	refuse("room")
	if err := m.SetSegmentLimit(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue(1, make([]byte, SegmentBytes), true); err != nil {
		t.Fatalf("max payload rejected: %v", err)
	}
	refuse("capped queue")
	for m.FreeSegments() > 0 {
		if _, err := m.Enqueue(2, []byte{2}, true); err != nil {
			t.Fatal(err)
		}
	}
	refuse("dry pool")
}

// TestSegmentCommandsReuseFIFO pins the reuse order the timed models'
// DDR-bank tables rest on: on a private pool, every segment Enqueue and
// AppendHead take is the head of a FIFO free list — 0, 1, …, N−1 on a fresh
// pool — and every segment Dequeue and DeleteSegment give back joins its
// tail, whatever mix of the four commands runs.
func TestSegmentCommandsReuseFIFO(t *testing.T) {
	const n = 8
	m := newTestManager(t, n)
	fifo := make([]Seg, n)
	for i := range fifo {
		fifo[i] = Seg(i)
	}
	rng := xrand.New(28)
	taken := 0
	for step := 0; step < 40*n; step++ {
		q := QueueID(rng.Intn(3))
		qlen, _ := m.Len(q)
		switch op := rng.Intn(4); {
		case op < 2 && len(fifo) > 0:
			cmd, name := m.Enqueue, "Enqueue"
			if op == 1 {
				cmd, name = m.AppendHead, "AppendHead"
			}
			s, err := cmd(q, []byte{byte(step)}, step%2 == 0)
			if err != nil || s != fifo[0] {
				t.Fatalf("step %d: %s = (%d, %v), want segment %d", step, name, s, err, fifo[0])
			}
			fifo = fifo[1:]
			taken++
		case op >= 2 && qlen > 0:
			head, _, _ := m.ReadHead(q)
			var err error
			if op == 2 {
				_, _, err = m.Dequeue(q)
			} else {
				err = m.DeleteSegment(q)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			fifo = append(fifo, head.Seg)
		}
	}
	if taken < 4*n {
		t.Fatalf("only %d segments taken: the pool did not cycle", taken)
	}
	mustInvariants(t, m)
}

func TestReadHead(t *testing.T) {
	m := newTestManager(t, 4)
	m.Enqueue(0, []byte{7, 8}, false)
	info, data, err := m.ReadHead(0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Len != 2 || info.EOP || data[0] != 7 {
		t.Fatalf("info=%+v data=%v", info, data)
	}
	// Non-destructive.
	if n, _ := m.Len(0); n != 1 {
		t.Fatalf("len = %d", n)
	}
	if _, _, err := m.ReadHead(1); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteSegment(t *testing.T) {
	m := newTestManager(t, 4)
	m.Enqueue(0, []byte{1}, false)
	m.Enqueue(0, []byte{2}, true)
	if err := m.DeleteSegment(0); err != nil {
		t.Fatal(err)
	}
	_, data, _ := m.Dequeue(0)
	if data[0] != 2 {
		t.Fatalf("head after delete = %d", data[0])
	}
	if err := m.DeleteSegment(0); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
	mustInvariants(t, m)
}

func TestDeletePacket(t *testing.T) {
	m := newTestManager(t, 16)
	// Two packets: 3 segments + 1 segment.
	m.Enqueue(0, []byte{1}, false)
	m.Enqueue(0, []byte{2}, false)
	m.Enqueue(0, []byte{3}, true)
	m.Enqueue(0, []byte{4}, true)
	n, err := m.DeletePacket(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d segments, want 3", n)
	}
	if l, _ := m.Len(0); l != 1 {
		t.Fatalf("len = %d", l)
	}
	_, data, _ := m.Dequeue(0)
	if data[0] != 4 {
		t.Fatalf("survivor = %d", data[0])
	}
	mustInvariants(t, m)
}

func TestDeletePacketIncomplete(t *testing.T) {
	m := newTestManager(t, 4)
	m.Enqueue(0, []byte{1}, false) // no EOP anywhere
	if _, err := m.DeletePacket(0); !errors.Is(err, ErrNoPacket) {
		t.Fatalf("err = %v", err)
	}
	// Queue untouched on failure.
	if n, _ := m.Len(0); n != 1 {
		t.Fatalf("len = %d", n)
	}
}

func TestOverwrite(t *testing.T) {
	m := newTestManager(t, 4)
	m.Enqueue(0, []byte{1, 2, 3}, true)
	if err := m.Overwrite(0, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	info, data, _ := m.ReadHead(0)
	if info.Len != 2 || !bytes.Equal(data, []byte{9, 9}) {
		t.Fatalf("info=%+v data=%v", info, data)
	}
	if !info.EOP {
		t.Fatal("overwrite must preserve EOP")
	}
	if err := m.Overwrite(1, []byte{1}); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteLength(t *testing.T) {
	m := newTestManager(t, 4)
	m.Enqueue(0, []byte{1, 2, 3, 4}, true)
	if err := m.OverwriteLength(0, 2); err != nil {
		t.Fatal(err)
	}
	info, _, _ := m.ReadHead(0)
	if info.Len != 2 {
		t.Fatalf("len = %d", info.Len)
	}
	if err := m.OverwriteLength(0, 0); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
	if err := m.OverwriteLength(0, SegmentBytes+1); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
	if err := m.OverwriteLength(1, 5); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendHead(t *testing.T) {
	m := newTestManager(t, 8)
	m.Enqueue(0, []byte{2}, true)
	// Prepend a header segment (protocol encapsulation use case).
	if _, err := m.AppendHead(0, []byte{1}, false); err != nil {
		t.Fatal(err)
	}
	_, d1, _ := m.Dequeue(0)
	_, d2, _ := m.Dequeue(0)
	if d1[0] != 1 || d2[0] != 2 {
		t.Fatalf("order = %d,%d", d1[0], d2[0])
	}
	mustInvariants(t, m)
}

func TestAppendHeadEmptyQueue(t *testing.T) {
	m := newTestManager(t, 4)
	if _, err := m.AppendHead(0, []byte{5}, true); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Len(0); n != 1 {
		t.Fatalf("len = %d", n)
	}
	mustInvariants(t, m)
}

func TestMovePacket(t *testing.T) {
	m := newTestManager(t, 16)
	m.Enqueue(0, []byte{1}, false)
	m.Enqueue(0, []byte{2}, true)
	m.Enqueue(0, []byte{3}, true) // second packet stays
	m.Enqueue(1, []byte{9}, true) // destination already populated
	n, err := m.MovePacket(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("moved %d segments", n)
	}
	if l, _ := m.Len(0); l != 1 {
		t.Fatalf("source len = %d", l)
	}
	if l, _ := m.Len(1); l != 3 {
		t.Fatalf("dest len = %d", l)
	}
	mustInvariants(t, m)
	// Destination order: 9, then 1, 2.
	var got []byte
	for i := 0; i < 3; i++ {
		_, d, _ := m.Dequeue(1)
		got = append(got, d[0])
	}
	if !bytes.Equal(got, []byte{9, 1, 2}) {
		t.Fatalf("dest order = %v", got)
	}
}

func TestMovePacketToEmptyQueue(t *testing.T) {
	m := newTestManager(t, 8)
	m.Enqueue(0, []byte{1}, true)
	if _, err := m.MovePacket(0, 2); err != nil {
		t.Fatal(err)
	}
	if l, _ := m.Len(2); l != 1 {
		t.Fatalf("dest len = %d", l)
	}
	if l, _ := m.Len(0); l != 0 {
		t.Fatalf("source len = %d", l)
	}
	mustInvariants(t, m)
}

func TestMovePacketSelf(t *testing.T) {
	m := newTestManager(t, 8)
	m.Enqueue(0, []byte{1}, true)
	m.Enqueue(0, []byte{2}, true)
	// Rotates the first packet to the tail.
	if _, err := m.MovePacket(0, 0); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	_, d, _ := m.Dequeue(0)
	if d[0] != 2 {
		t.Fatalf("head after self-move = %d", d[0])
	}
	// Self-move of the only packet is a no-op.
	if _, err := m.MovePacket(0, 0); err != nil {
		t.Fatal(err)
	}
	mustInvariants(t, m)
	_, d, _ = m.Dequeue(0)
	if d[0] != 1 {
		t.Fatalf("got %d", d[0])
	}
}

func TestMovePacketErrors(t *testing.T) {
	m := newTestManager(t, 8)
	if _, err := m.MovePacket(0, 1); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
	m.Enqueue(0, []byte{1}, false) // incomplete packet
	if _, err := m.MovePacket(0, 1); !errors.Is(err, ErrNoPacket) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.MovePacket(0, 99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestOverwriteAndMove(t *testing.T) {
	m := newTestManager(t, 8)
	m.Enqueue(0, []byte{1, 1}, true)
	n, err := m.OverwriteAndMove(0, 1, []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("moved %d", n)
	}
	info, data, _ := m.ReadHead(1)
	if info.Len != 1 || data[0] != 5 {
		t.Fatalf("info=%+v data=%v", info, data)
	}
	mustInvariants(t, m)
}

func TestOverwriteLengthAndMove(t *testing.T) {
	m := newTestManager(t, 8)
	m.Enqueue(0, []byte{1, 2, 3}, true)
	if _, err := m.OverwriteLengthAndMove(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	info, _, _ := m.ReadHead(1)
	if info.Len != 1 {
		t.Fatalf("len = %d", info.Len)
	}
	mustInvariants(t, m)
}

// segInfos reads queue q's segments head to tail off the link table.
func segInfos(m *Manager, q QueueID) (infos []SegInfo) {
	for s := m.qhead[q]; s != nilSeg; s = m.next[s] {
		infos = append(infos, m.info(s))
	}
	return infos
}

func TestPayloadAccessor(t *testing.T) {
	m := newTestManager(t, 4)
	s, _ := m.Enqueue(0, []byte{42}, true)
	p, err := m.Payload(s)
	if err != nil || p[0] != 42 {
		t.Fatalf("payload = %v err = %v", p, err)
	}
	if _, err := m.Payload(Seg(-1)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoDataMode(t *testing.T) {
	m, err := New(Config{NumQueues: 2, NumSegments: 8, StoreData: false})
	if err != nil {
		t.Fatal(err)
	}
	m.Enqueue(0, []byte{1, 2, 3}, true)
	info, data, err := m.Dequeue(0)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("no-data mode returned payload")
	}
	if info.Len != 3 {
		t.Fatalf("metadata lost: %+v", info)
	}
}
