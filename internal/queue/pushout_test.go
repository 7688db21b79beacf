package queue

import (
	"errors"
	"testing"

	"npqm/internal/xrand"
)

// bruteLongest finds the longest queue by scanning, for cross-checking the
// heap. Ties break toward the lower queue ID, matching heapLess.
func bruteLongest(m *Manager) (QueueID, int, bool) {
	best, bestLen := QueueID(0), 0
	for q := 0; q < m.NumQueues(); q++ {
		n, _ := m.Len(QueueID(q))
		if n > bestLen {
			best, bestLen = QueueID(q), n
		}
	}
	return best, bestLen, bestLen > 0
}

func TestLongestQueueTracking(t *testing.T) {
	m, err := New(Config{NumQueues: 16, NumSegments: 256, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	m.SetLongestTracking(true)
	if m.heapPos == nil {
		t.Fatal("tracking not enabled")
	}
	rng := xrand.New(11)
	pkt := make([]byte, 4*SegmentBytes)
	for op := 0; op < 5000; op++ {
		q := QueueID(rng.Intn(16))
		if rng.Bool(0.55) {
			size := 1 + rng.Intn(len(pkt)-1)
			if _, err := m.EnqueuePacket(q, pkt[:size]); err != nil &&
				!errors.Is(err, ErrNoFreeSegments) {
				t.Fatal(err)
			}
		} else {
			if _, _, err := m.DequeuePacket(q); err != nil && !errors.Is(err, ErrQueueEmpty) {
				t.Fatal(err)
			}
		}
		if op%97 == 0 {
			// Throw moves into the mix: they bypass the link/unlink path.
			_, _ = m.MovePacket(QueueID(rng.Intn(16)), QueueID(rng.Intn(16)))
		}
		gotQ, gotLen, gotOK := m.LongestQueue()
		_, wantLen, wantOK := bruteLongest(m)
		if gotOK != wantOK || (gotOK && gotLen != wantLen) {
			t.Fatalf("op %d: LongestQueue = (%d, %d, %v), brute force says len %d ok %v",
				op, gotQ, gotLen, gotOK, wantLen, wantOK)
		}
		if mirror := m.LongestLen(); mirror != wantLen {
			t.Fatalf("op %d: LongestLen mirror = %d, brute force says %d", op, mirror, wantLen)
		}
		if gotOK {
			if n, _ := m.Len(gotQ); n != gotLen {
				t.Fatalf("op %d: reported queue %d has %d segments, reported %d", op, gotQ, n, gotLen)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLongestTrackingMidstreamAndOff(t *testing.T) {
	m, err := New(Config{NumQueues: 8, NumSegments: 64, StoreData: false})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, SegmentBytes)
	for q := 0; q < 4; q++ {
		for i := 0; i <= q; i++ {
			if _, err := m.EnqueuePacket(QueueID(q), pkt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Fallback scan with tracking off.
	q, n, ok := m.LongestQueue()
	if !ok || q != 3 || n != 4 {
		t.Fatalf("untracked LongestQueue = (%d, %d, %v), want (3, 4, true)", q, n, ok)
	}
	if got := m.LongestLen(); got != 0 {
		t.Fatalf("LongestLen = %d with tracking off, want 0 (the mirror is only kept while tracking)", got)
	}
	// Enabling mid-stream builds the heap from live state.
	m.SetLongestTracking(true)
	q, n, ok = m.LongestQueue()
	if !ok || q != 3 || n != 4 {
		t.Fatalf("tracked LongestQueue = (%d, %d, %v), want (3, 4, true)", q, n, ok)
	}
	if got := m.LongestLen(); got != 4 {
		t.Fatalf("LongestLen = %d after enabling tracking mid-stream, want 4", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.SetLongestTracking(false)
	if m.heapPos != nil || m.LongestLen() != 0 {
		t.Fatalf("tracking still on (%v) or mirror not cleared (%d)", m.heapPos != nil, m.LongestLen())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPushOutLongest(t *testing.T) {
	m, err := New(Config{NumQueues: 4, NumSegments: 64, StoreData: false})
	if err != nil {
		t.Fatal(err)
	}
	m.SetLongestTracking(true)
	pkt := make([]byte, 3*SegmentBytes)
	for i := 0; i < 5; i++ {
		if _, err := m.EnqueuePacket(1, pkt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.EnqueuePacket(2, pkt[:SegmentBytes]); err != nil {
		t.Fatal(err)
	}
	q, n, err := m.PushOutLongest()
	if err != nil || q != 1 || n != 3 {
		t.Fatalf("PushOutLongest = (%d, %d, %v), want (1, 3, nil)", q, n, err)
	}
	if got, _ := m.Len(1); got != 12 {
		t.Fatalf("queue 1 has %d segments after push-out, want 12", got)
	}
	// Drain everything; push-out on an empty manager errors.
	for {
		if _, _, err := m.PushOutLongest(); err != nil {
			if !errors.Is(err, ErrQueueEmpty) {
				t.Fatalf("final push-out error = %v, want ErrQueueEmpty", err)
			}
			break
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := m.FreeSegments(); free != 64 {
		t.Fatalf("pool not restored: %d free of 64", free)
	}
}

func TestPushOutPartialPacket(t *testing.T) {
	m, err := New(Config{NumQueues: 2, NumSegments: 8, StoreData: false})
	if err != nil {
		t.Fatal(err)
	}
	m.SetLongestTracking(true)
	// A headless partial packet: two segments, no EOP.
	if _, err := m.Enqueue(0, make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue(0, make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	q, n, err := m.PushOutLongest()
	if err != nil || q != 0 || n != 1 {
		t.Fatalf("partial push-out = (%d, %d, %v), want (0, 1, nil) single-segment fallback", q, n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetSegmentLimitClamp(t *testing.T) {
	m, err := New(Config{NumQueues: 2, NumSegments: 32, StoreData: false})
	if err != nil {
		t.Fatal(err)
	}
	// Limits beyond the pool clamp to the pool size.
	if err := m.SetSegmentLimit(0, 1000); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.SegmentLimit(0); got != 32 {
		t.Fatalf("SegmentLimit after oversized set = %d, want clamped 32", got)
	}
	// In-range limits are kept verbatim; 0 removes the cap.
	if err := m.SetSegmentLimit(0, 5); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.SegmentLimit(0); got != 5 {
		t.Fatalf("SegmentLimit = %d, want 5", got)
	}
	if err := m.SetSegmentLimit(0, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.SegmentLimit(0); got != 0 {
		t.Fatalf("SegmentLimit after clear = %d, want 0", got)
	}
	if err := m.SetSegmentLimit(0, -3); err == nil {
		t.Fatal("negative limit accepted")
	}
}
