package engine

import (
	"testing"
	"unsafe"
)

// The padding audit's enforcement: every cross-thread hot word the
// multi-core pass padded must stay at least hotPad bytes from the fields
// it was separated from. Distances are asserted (not absolute alignment —
// Go's heap does not promise 64-byte base alignment), and hotPad itself
// must cover the adjacent-line prefetcher pair.

func TestHotPadCoversPrefetchPair(t *testing.T) {
	if hotPad < 128 {
		t.Fatalf("hotPad = %d, want >= 128", hotPad)
	}
}

// TestShardLayout: the worker-accounting atomics are written by the worker
// outside the critical section, while the mutex and the plain counters
// above them are the lock holder's hot state.
func TestShardLayout(t *testing.T) {
	var s shard
	offRes := unsafe.Offsetof(s.res) // last plain field before the block
	offAcct := unsafe.Offsetof(s.wBusyNs)
	offLast := unsafe.Offsetof(s.wIdleNs)

	if d := offAcct - offRes; d < hotPad {
		t.Errorf("layout: shard accounting block only %d bytes past owner state, want >= %d", d, hotPad)
	}
	if d := unsafe.Sizeof(s) - offLast; d < hotPad {
		t.Errorf("layout: shard accounting block only %d bytes from struct end, want >= %d", d, hotPad)
	}
}

// TestFlowStateLayout: the dense flow table is the engine's per-flow
// footprint (one entry per flow of the space); a flow's row in its shard's
// queue table must fit in the four bytes that aligning deficit leaves free.
func TestFlowStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowState{}); got != 40 {
		t.Fatalf("layout: flowState is %d bytes, want 40", got)
	}
}

// TestPortLayout: the enqueue path CASes idle per notify; the pacer writes
// tx counters and, on shaped ports, the departure stamp and the gap
// histogram per packet. Neither may share a line with the other or with the
// read-only header, and the histogram — the struct's last and largest
// member — must not run into the next heap object.
func TestPortLayout(t *testing.T) {
	var p port
	offHdr := unsafe.Offsetof(p.shardCursor)
	offCtl := unsafe.Offsetof(p.paused)
	offTx := unsafe.Offsetof(p.txPackets)

	if d := offCtl - offHdr; d < hotPad {
		t.Errorf("layout: port control words only %d bytes past header, want >= %d", d, hotPad)
	}
	if d := offTx - unsafe.Offsetof(p.sink); d < hotPad {
		t.Errorf("layout: port tx counters only %d bytes past control words, want >= %d", d, hotPad)
	}
	if d := unsafe.Sizeof(p) - unsafe.Offsetof(p.gaps) - unsafe.Sizeof(p.gaps); d < hotPad {
		t.Errorf("layout: port gap histogram ends %d bytes from struct end, want >= %d", d, hotPad)
	}
}

// TestPacerLayout: the mailbox (mu/pending/wake/coalesced) takes stores
// from every producer's notify; the wheel state below it (state is its
// first word) belongs to the pacer goroutine alone.
func TestPacerLayout(t *testing.T) {
	var pc pacer
	offHdr := unsafe.Offsetof(pc.home)
	offMu := unsafe.Offsetof(pc.mu)
	offWheel := unsafe.Offsetof(pc.state)

	if d := offMu - offHdr; d < hotPad {
		t.Errorf("layout: pacer mailbox only %d bytes past header, want >= %d", d, hotPad)
	}
	if d := offWheel - unsafe.Offsetof(pc.started); d < hotPad {
		t.Errorf("layout: pacer wheel state only %d bytes past mailbox, want >= %d", d, hotPad)
	}
}
