package queue

import (
	"testing"

	"npqm/internal/xrand"
)

// TestLongestQueueTracking: the harness holds LongestQueue and the
// LongestLen mirror to the model after every enqueue, dequeue and move.
func TestLongestQueueTracking(t *testing.T) {
	h := newPrivate(t, 16, 256).do(oTracking, 1)
	rng := xrand.New(11)
	for op := range 5000 {
		q := rng.Intn(16)
		if rng.Bool(0.55) {
			h.do(oEnqueuePacket, q, 1+rng.Intn(4*SegmentBytes-1))
		} else {
			h.do(oDequeuePacket, q)
		}
		if op%97 == 0 {
			h.do(oMove, rng.Intn(16), rng.Intn(16))
		}
	}
}

// TestLongestTrackingMidstreamAndOff: untracked, LongestQueue scans and the
// mirror reads 0; enabling tracking builds the heap from live state;
// disabling frees it and clears the mirror.
func TestLongestTrackingMidstreamAndOff(t *testing.T) {
	h := newPrivate(t, 8, 64)
	for q := range 4 {
		for range q + 1 {
			h.do(oEnqueuePacket, q, SegmentBytes)
		}
	}
	h.do(oTracking, 1).do(oTracking, 0)
	if h.ms[0].heapPos != nil {
		t.Fatal("tracking still on")
	}
}

func TestPushOutLongest(t *testing.T) {
	h := newPrivate(t, 4, 64).do(oTracking, 1)
	for range 5 {
		h.do(oEnqueuePacket, 1, 3*SegmentBytes)
	}
	h.do(oEnqueuePacket, 2, SegmentBytes)
	for range 6 {
		h.do(oPushOut).is(nil)
	}
	h.do(oPushOut).is(ErrQueueEmpty)
}

// TestPushOutPartialPacket: a longest queue without a whole packet at its
// head loses one segment.
func TestPushOutPartialPacket(t *testing.T) {
	newPrivate(t, 2, 8).do(oTracking, 1).do(oEnqueue, 0, 8, 0).do(oEnqueue, 0, 8, 0).do(oPushOut).is(nil)
}

// TestSetSegmentLimitClamp: limits beyond the pool clamp to the pool size;
// in-range limits are kept verbatim; 0 removes the cap.
func TestSetSegmentLimitClamp(t *testing.T) {
	newPrivate(t, 2, 32).do(oLimit, 0, 1000).do(oLimit, 0, 5).do(oLimit, 0, 0).do(oLimit, 0, -3).is(ErrBadLength)
}
