package queue

import (
	"errors"
	"testing"
)

func TestOccupancyTracksOperations(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueue, 0, 64, 0).do(oEnqueue, 0, 10, 1).do(oOverwrite, 0, 4).
		do(oOverwriteLength, 0, 60).do(oDequeue, 0).do(oDequeue, 0).is(nil)
}

func TestOccupancyMoveTransfers(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueuePacket, 1, 100).do(oEnqueuePacket, 1, 64).do(oMove, 1, 2).is(nil)
}

func TestSegmentLimitTailDrop(t *testing.T) {
	h := newPrivate(t, 8, 32).do(oLimit, 3, 2).do(oEnqueue, 3, 1, 1).do(oEnqueue, 3, 1, 1).
		do(oEnqueue, 3, 1, 1).is(ErrQueueLimit).do(oDequeue, 3).do(oEnqueue, 3, 1, 1).is(nil).do(oLimit, 3, 0)
	for range 10 {
		h.do(oEnqueue, 3, 1, 1).is(nil)
	}
}

func TestSegmentLimitPacketAdmission(t *testing.T) {
	// A 4-segment packet is refused whole, not truncated.
	newPrivate(t, 8, 32).do(oLimit, 0, 3).do(oEnqueuePacket, 0, 4*SegmentBytes).is(ErrQueueLimit).
		do(oEnqueuePacket, 0, 3*SegmentBytes).is(nil)
}

func TestSegmentLimitMoveAdmission(t *testing.T) {
	newPrivate(t, 8, 32).do(oLimit, 5, 1).do(oEnqueuePacket, 4, 2*SegmentBytes).do(oMove, 4, 5).is(ErrQueueLimit).
		do(oEnqueue, 5, 1, 1).do(oAppendHead, 5, 1, 0).is(ErrQueueLimit).
		do(oOverwriteAndMove, 4, 5, 3).is(ErrQueueLimit).do(oTransfer, 4, 5).is(ErrQueueLimit).
		do(oReserve, 5, 1, 1).is(ErrQueueLimit)
}

func TestSegmentLimitValidation(t *testing.T) {
	// Clearing a cap that was never set is a no-op.
	h := newPrivate(t, 8, 8).do(oLimit, 99, 1).is(ErrBadQueue).do(oLimit, 0, -1).is(ErrBadLength).do(oLimit, 0, 0).is(nil)
	if _, err := h.ms[0].SegmentLimit(99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestOccupancyBadQueue(t *testing.T) {
	m := newPrivate(t, 8, 8).ms[0]
	if _, err := m.Occupancy(99); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeletePacketUpdatesAccounting(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueuePacket, 0, 150).do(oEnqueuePacket, 0, 64).do(oDeletePacket, 0).is(nil)
}
