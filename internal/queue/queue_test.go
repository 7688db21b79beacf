package queue

import (
	"errors"
	"testing"
)

// The single-scenario tests below are command scripts on the harness
// (fuzz_test.go): the model checks every return, every queued segment and
// the books after each command, and .is pins what a script is for.

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
	newPrivate(t, 8, 16).do(oEnqueue, 3, 20, 1).is(nil).do(oDequeue, 3).is(nil)
}

func TestFIFOOrderWithinQueue(t *testing.T) {
	h := newPrivate(t, 8, 32)
	for range 10 {
		h.do(oEnqueue, 0, 1, 1)
	}
	for range 10 {
		h.do(oDequeue, 0).is(nil)
	}
}

func TestQueueIsolation(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueue, 1, 1, 1).do(oEnqueue, 2, 1, 1).do(oEnqueue, 1, 1, 1).do(oDequeue, 2).is(nil)
}

func TestDequeueEmpty(t *testing.T) {
	newPrivate(t, 8, 4).do(oDequeue, 0).is(ErrQueueEmpty)
}

func TestBadQueueID(t *testing.T) {
	h := newPrivate(t, 8, 4).do(oEnqueue, 99, 1, 1).is(ErrBadQueue).do(oDequeue, 99).is(ErrBadQueue)
	if _, err := h.ms[0].Len(99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestExhaustion(t *testing.T) {
	h := newPrivate(t, 8, 3)
	for range 3 {
		h.do(oEnqueue, 0, 1, 1).is(nil)
	}
	h.do(oEnqueue, 0, 1, 1).is(ErrNoFreeSegments).do(oDequeue, 0).do(oEnqueue, 0, 1, 1).is(nil)
}

// TestPayloadValidation: an empty or oversized payload is refused with
// ErrBadLength by both single-segment commands before anything is
// allocated — on a pool with room, on a queue at its cap and on a dry pool
// alike — and leaves pool, queues and invariants as they were.
func TestPayloadValidation(t *testing.T) {
	h := newPrivate(t, 8, 4)
	refuse := func() {
		for _, n := range []int{0, SegmentBytes + 1} {
			h.do(oEnqueue, 1, n, 1).is(ErrBadLength).do(oAppendHead, 1, n, 1).is(ErrBadLength)
		}
	}
	refuse()
	h.do(oLimit, 1, 1).do(oEnqueue, 1, SegmentBytes, 1).is(nil)
	refuse()
	for range 3 {
		h.do(oEnqueue, 2, 1, 1).is(nil)
	}
	refuse()
}

// TestReadHead: the harness reads every queue's head after each command —
// here a segment without EOP, and ErrQueueEmpty on the other queues — and
// the queues must read back the same after it.
func TestReadHead(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueue, 0, 2, 0).do(oEnqueue, 0, 5, 1)
}

func TestDeleteSegment(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueue, 0, 1, 0).do(oEnqueue, 0, 1, 1).do(oDeleteSegment, 0).is(nil).
		do(oDequeue, 0).do(oDeleteSegment, 0).is(ErrQueueEmpty)
}

func TestDeletePacket(t *testing.T) {
	newPrivate(t, 8, 16).do(oEnqueue, 0, 1, 0).do(oEnqueue, 0, 1, 0).do(oEnqueue, 0, 1, 1).do(oEnqueue, 0, 1, 1).
		do(oDeletePacket, 0).is(nil).do(oDequeue, 0).is(nil)
}

func TestDeletePacketIncomplete(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueue, 0, 1, 0).do(oDeletePacket, 0).is(ErrNoPacket)
}

func TestOverwrite(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueue, 0, 3, 1).do(oOverwrite, 0, 2).is(nil).do(oOverwrite, 1, 1).is(ErrQueueEmpty)
}

func TestOverwriteLength(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueue, 0, 4, 1).do(oOverwriteLength, 0, 2).is(nil).
		do(oOverwriteLength, 0, 0).is(ErrBadLength).do(oOverwriteLength, 0, SegmentBytes+1).is(ErrBadLength).
		do(oOverwriteLength, 1, 5).is(ErrQueueEmpty)
}

func TestAppendHead(t *testing.T) {
	newPrivate(t, 8, 8).do(oEnqueue, 0, 1, 1).do(oAppendHead, 0, 1, 0).is(nil).do(oDequeue, 0).do(oDequeue, 0)
}

func TestAppendHeadEmptyQueue(t *testing.T) {
	newPrivate(t, 8, 4).do(oAppendHead, 0, 5, 1).is(nil)
}

func TestMovePacket(t *testing.T) {
	h := newPrivate(t, 8, 16).do(oEnqueue, 0, 1, 0).do(oEnqueue, 0, 1, 1).do(oEnqueue, 0, 1, 1).do(oEnqueue, 1, 1, 1).
		do(oMove, 0, 1).is(nil)
	for range 3 {
		h.do(oDequeue, 1)
	}
}

func TestMovePacketToEmptyQueue(t *testing.T) {
	newPrivate(t, 8, 8).do(oEnqueue, 0, 1, 1).do(oMove, 0, 2).is(nil)
}

func TestMovePacketSelf(t *testing.T) {
	// Rotates the first packet to the tail; a self-move of the only packet
	// is a no-op.
	newPrivate(t, 8, 8).do(oEnqueue, 0, 1, 1).do(oEnqueue, 0, 1, 1).do(oMove, 0, 0).do(oDequeue, 0).
		do(oMove, 0, 0).is(nil).do(oDequeue, 0)
}

func TestMovePacketErrors(t *testing.T) {
	newPrivate(t, 8, 8).do(oMove, 0, 1).is(ErrQueueEmpty).do(oEnqueue, 0, 1, 0).do(oMove, 0, 1).is(ErrNoPacket).
		do(oMove, 0, 99).is(ErrBadQueue)
}

func TestOverwriteAndMove(t *testing.T) {
	newPrivate(t, 8, 8).do(oEnqueue, 0, 2, 1).do(oOverwriteAndMove, 0, 1, 1).is(nil)
}

func TestOverwriteLengthAndMove(t *testing.T) {
	newPrivate(t, 8, 8).do(oEnqueue, 0, 3, 1).do(oOverwriteLengthAndMove, 0, 1, 1).is(nil)
}

// segInfos reads queue q's segments head to tail off the link table.
func segInfos(m *Manager, q QueueID) (infos []SegInfo) {
	for s := m.qhead[q]; s != nilSeg; s = m.next[s] {
		infos = append(infos, m.info(s))
	}
	return infos
}

func TestPayloadAccessor(t *testing.T) {
	h := newPrivate(t, 8, 4).do(oEnqueue, 0, 1, 1) // the harness reads every queued segment through Payload
	if _, err := h.ms[0].Payload(Seg(-1)); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("err = %v", err)
	}
}
