package queue

import (
	"bytes"
	"fmt"
	"testing"

	"npqm/internal/segstore"
)

// The cross-manager scripts run on two managers sharing one store, as the
// engine's shards do; on(k) names the manager of the next command.

func TestCrossManagerChainMove(t *testing.T) {
	h := newShared(t, 16, 128, 8, 2)
	h.on(0).do(oEnqueuePacket, 3, 180).on(0).do(oEnqueuePacket, 3, 1).on(0).do(oTransfer, 3, 7).is(nil).
		on(1).do(oDequeuePacket, 7).is(nil).on(0).do(oDequeuePacket, 3).is(nil).on(0).do(oFlush).do(oFlush)
}

// TestChainRollbackRestoresOrder: a destination that refuses the packet
// (its cap) has it restored at the source's head, FIFO order intact.
func TestChainRollbackRestoresOrder(t *testing.T) {
	h := newShared(t, 16, 128, 8, 2)
	h.on(1).do(oLimit, 5, 1).on(0).do(oEnqueuePacket, 0, 100).on(0).do(oEnqueuePacket, 0, 100).
		on(0).do(oTransfer, 0, 5).is(ErrQueueLimit).on(0).do(oDequeuePacket, 0).on(0).do(oDequeuePacket, 0).is(nil)
}

// TestSharedManagersSeeGlobalPool: one manager hoards the pool, the other
// sees it empty (FreeSegments is pool-wide), and a flush after a drain
// makes room again.
func TestSharedManagersSeeGlobalPool(t *testing.T) {
	h := newShared(t, 16, 64, 8, 2)
	for range 64 {
		h.on(0).do(oEnqueuePacket, 1, 1).is(nil)
	}
	h.on(1).do(oEnqueuePacket, 2, 1).is(ErrNoFreeSegments)
	for range 8 {
		h.on(0).do(oDequeuePacket, 1)
	}
	h.on(0).do(oFlush).on(1).do(oEnqueuePacket, 2, 1).is(nil)
}

// wellFormed hops the n-segment chain from head and reports how it breaks
// the rule a bin or grain stack relies on: its runs add up to n, each run's
// interior links to its address successor, and only its last segment
// carries EOP.
func wellFormed(m *Manager, head int32, n int) error {
	seen := 0
	for s := head; ; {
		r := int(m.seg[s] >> segstore.WordRun)
		if r < 1 || seen+r > n {
			return fmt.Errorf("segment %d starts a run of %d after %d of %d segments", s, r, seen, n)
		}
		for i := int32(0); i < int32(r); i++ {
			if eop := m.seg[s+i]&segstore.WordEOP != 0; eop != (seen+1 == n) {
				return fmt.Errorf("segment %d (%d of %d) has EOP %v", s+i, seen+1, n, eop)
			}
			if seen++; i < int32(r)-1 && m.next[s+i] != s+i+1 {
				return fmt.Errorf("segment %d inside a run links to %d", s+i, m.next[s+i])
			}
		}
		if seen == n {
			return nil
		}
		s = m.next[s+int32(r)-1]
	}
}

// A short allocation's partial run goes back through returnRun, and a run
// of 2…MaxGrain segments lands in a bin, where the next packet of its size
// reuses it as it stands: returnRun must hand back a well-formed chain,
// whatever words the segments held and however scattered they are.
func TestReturnRunFreesAWellFormedChain(t *testing.T) {
	h := newShared(t, 16, 64, 8, 2)
	m, c := h.ms[0], h.caches[0]
	run := make([]int32, 8)
	if got := c.AllocN(run); got != len(run) {
		t.Fatalf("AllocN = %d, want %d", got, len(run))
	}
	for _, s := range run {
		m.seg[s] = segstore.WordEOP | 7<<segstore.WordRun | 3 // a stale word from some other life
	}
	evens := []int32{run[0], run[2], run[4], run[6]}
	odds := []int32{run[1], run[3], run[5], run[7]}
	m.returnRun(evens)
	m.returnRun(odds)
	for _, part := range [][]int32{evens, odds} {
		if err := wellFormed(m, part[0], len(part)); err != nil {
			t.Fatalf("chain %v after returnRun: %v", part, err)
		}
	}
	c.Publish()
	if err := h.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The next 4-segment packet takes the last of them whole.
	payload := pattern(3*SegmentBytes+5, 9)
	if _, err := m.EnqueuePacket(0, payload); err != nil {
		t.Fatal(err)
	}
	if m.qhead[0] != odds[0] || m.qtail[0] != odds[3] || m.FillWhole() != 1 || m.FillRuns() != 4 {
		t.Fatalf("packet on [%d..%d], %d whole, %d runs; want the chain [%d..%d] reused whole as 4 runs",
			m.qhead[0], m.qtail[0], m.FillWhole(), m.FillRuns(), odds[0], odds[3])
	}
	if out, _, err := m.DequeuePacket(0); err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("dequeue = (%d bytes, %v), want the %d-byte packet", len(out), err, len(payload))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
