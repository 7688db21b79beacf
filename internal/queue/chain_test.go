package queue

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"npqm/internal/segstore"
)

// sharedPair builds two managers over one shared store, as the engine's
// shards do, and returns their caches beside them.
func sharedPair(t *testing.T, segments int) (a, b *Manager, caches [2]*segstore.Cache, st *segstore.Store) {
	t.Helper()
	var err error
	st, err = segstore.New(segstore.Config{
		NumSegments:  segments,
		SegmentBytes: SegmentBytes,
		StoreData:    true,
		MagazineSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	caches = [2]*segstore.Cache{st.NewCache(), st.NewCache()}
	if a, err = NewWithStore(Config{NumQueues: 16}, caches[0]); err != nil {
		t.Fatal(err)
	}
	if b, err = NewWithStore(Config{NumQueues: 16}, caches[1]); err != nil {
		t.Fatal(err)
	}
	return a, b, caches, st
}

func TestCrossManagerChainMove(t *testing.T) {
	a, b, caches, st := sharedPair(t, 128)
	payload := bytes.Repeat([]byte{0xab, 0x12}, 90) // 180 B → 3 segments
	if _, err := a.EnqueuePacket(3, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EnqueuePacket(3, []byte{9}); err != nil {
		t.Fatal(err)
	}
	ch, err := a.UnlinkHeadPacket(3)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Segs != 3 || ch.Bytes != 180 {
		t.Fatalf("chain = %+v, want 3 segments / 180 bytes", ch)
	}
	if n, _ := a.Len(3); n != 1 {
		t.Fatalf("source holds %d segments after unlink, want 1", n)
	}
	if err := b.LinkPacketTail(7, ch); err != nil {
		t.Fatal(err)
	}
	got, n, err := b.DequeuePacket(7)
	if err != nil || n != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("relinked packet = (%d segs, %v), payload match %v", n, err, bytes.Equal(got, payload))
	}
	// Both managers and the store must still be consistent.
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.DequeuePacket(3); err != nil {
		t.Fatal(err)
	}
	caches[0].Flush()
	caches[1].Flush()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := st.Free(); free != 128 {
		t.Fatalf("store free = %d, want 128", free)
	}
}

func TestChainRollbackRestoresOrder(t *testing.T) {
	a, b, _, _ := sharedPair(t, 128)
	first := bytes.Repeat([]byte{1}, 100)
	second := bytes.Repeat([]byte{2}, 100)
	if _, err := a.EnqueuePacket(0, first); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EnqueuePacket(0, second); err != nil {
		t.Fatal(err)
	}
	// Destination refuses (per-flow cap): caller restores at the head.
	if err := b.SetSegmentLimit(5, 1); err != nil {
		t.Fatal(err)
	}
	ch, err := a.UnlinkHeadPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LinkPacketTail(5, ch); !errors.Is(err, ErrQueueLimit) {
		t.Fatalf("over-cap link err = %v, want ErrQueueLimit", err)
	}
	if err := a.LinkPacketHead(0, ch); err != nil {
		t.Fatal(err)
	}
	// FIFO order must be intact: first out is still `first`.
	got, _, err := a.DequeuePacket(0)
	if err != nil || !bytes.Equal(got, first) {
		t.Fatalf("head after rollback = %v (err %v), want the first packet", got[:1], err)
	}
	got, _, err = a.DequeuePacket(0)
	if err != nil || !bytes.Equal(got, second) {
		t.Fatalf("second packet corrupted by rollback (err %v)", err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedManagersSeeGlobalPool(t *testing.T) {
	a, b, caches, _ := sharedPair(t, 64)
	// Manager a hoards the whole pool on one queue.
	for i := 0; i < 64; i++ {
		if _, err := a.EnqueuePacket(1, []byte{byte(i)}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if free := b.FreeSegments(); free != 0 {
		t.Fatalf("b sees %d free, want 0 (pool-wide view)", free)
	}
	if _, err := b.EnqueuePacket(2, []byte{1}); !errors.Is(err, ErrNoFreeSegments) {
		t.Fatalf("enqueue on exhausted pool: %v", err)
	}
	// Draining via a (with a flush) makes room for b again.
	for i := 0; i < 8; i++ {
		if _, _, err := a.DequeuePacket(1); err != nil {
			t.Fatal(err)
		}
	}
	caches[0].Flush()
	if _, err := b.EnqueuePacket(2, []byte{1}); err != nil {
		t.Fatalf("enqueue after drain+flush: %v", err)
	}
	if a.QueuedSegments() != 56 || b.QueuedSegments() != 1 {
		t.Fatalf("queued split = (%d, %d), want (56, 1)", a.QueuedSegments(), b.QueuedSegments())
	}
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
	m, _, caches, st := sharedPair(t, 64)
	run := make([]int32, 8)
	if got := caches[0].AllocN(run); got != len(run) {
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
	caches[0].Publish()
	if err := st.CheckInvariants(); err != nil {
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
	mustInvariants(t, m)
}
