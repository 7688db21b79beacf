package queue

import "testing"

// TestEnqueuePacketSegmentation: full segments, then the remainder with
// the EOP flag (the harness reads every segment back).
func TestEnqueuePacketSegmentation(t *testing.T) {
	newPrivate(t, 8, 16).do(oEnqueuePacket, 5, 3*SegmentBytes+10).is(nil)
}

func TestPacketRoundTrip(t *testing.T) {
	h := newPrivate(t, 8, 64)
	for _, size := range []int{1, SegmentBytes - 1, SegmentBytes, SegmentBytes + 1, 5 * SegmentBytes, 777} {
		h.do(oEnqueuePacket, 2, size).is(nil).do(oDequeuePacket, 2).is(nil)
	}
}

func TestEnqueuePacketExactFit(t *testing.T) {
	newPrivate(t, 8, 4).do(oEnqueuePacket, 0, 4*SegmentBytes).is(nil)
}

func TestEnqueuePacketInsufficientSegments(t *testing.T) {
	newPrivate(t, 8, 2).do(oEnqueuePacket, 0, 3*SegmentBytes).is(ErrNoFreeSegments)
}

func TestEnqueuePacketEmpty(t *testing.T) {
	newPrivate(t, 8, 2).do(oEnqueuePacket, 0, 0).is(ErrBadLength)
}

func TestDequeuePacketErrors(t *testing.T) {
	newPrivate(t, 8, 8).do(oDequeuePacket, 0).is(ErrQueueEmpty).do(oEnqueue, 0, 1, 0).do(oDequeuePacket, 0).is(ErrNoPacket)
}

func TestDequeuePacketInterleavedQueues(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueuePacket, 0, 100).do(oEnqueuePacket, 1, 200).do(oDequeuePacket, 1, 1).is(nil).
		do(oDequeuePacket, 0, 2).is(nil)
}

// TestPacketLen: the harness reads PacketLen of every queue after each
// command, non-destructively.
func TestPacketLen(t *testing.T) {
	newPrivate(t, 8, 16).do(oEnqueuePacket, 0, 2*SegmentBytes+5).do(oEnqueue, 3, 1, 0)
}

func TestMoveWholePacketBetweenQueuesPreservesData(t *testing.T) {
	newPrivate(t, 8, 32).do(oEnqueuePacket, 4, 3*SegmentBytes).do(oMove, 4, 6).do(oDequeuePacket, 6).is(nil)
}
