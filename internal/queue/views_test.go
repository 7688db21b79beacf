package queue

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestDequeuePacketViewRoundTrip(t *testing.T) {
	// The harness checks the books with the view held: out of the queue,
	// lent, not yet free.
	newPrivate(t, 8, 64).do(oEnqueuePacket, 1, 3*SegmentBytes+17).do(oView, 1, 1).is(nil).do(oRelease, 1)
}

func TestPacketViewErrors(t *testing.T) {
	// A failed view dequeue leaves the queue servable by the view path once
	// the packet completes.
	newPrivate(t, 8, 16).do(oView, 0).is(ErrQueueEmpty).do(oEnqueue, 2, 8, 0).do(oView, 2).is(ErrNoPacket).
		do(oEnqueue, 2, 8, 1).do(oView, 2).is(nil)
	// The zero view is not a packet: releasing it, directly or through an
	// accumulator, does nothing.
	var v PacketView
	var r ViewReleaser
	v.Release()
	r.Add(v)
	r.Flush()
	if v.Valid() || v.Len() != 0 || v.AppendTo(nil) != nil {
		t.Fatal("the zero view reads as a packet")
	}
}

func TestPacketViewRetainCrossGoroutine(t *testing.T) {
	m := newShared(t, 8, 64, 0, 1).ms[0]
	payload := make([]byte, 2*SegmentBytes)
	if _, err := m.EnqueuePacket(0, payload); err != nil {
		t.Fatal(err)
	}
	v, err := m.DequeuePacketView(0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand extra references to concurrent readers; the chain must survive
	// until the last reference anywhere drops.
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		v.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			v.Range(func(seg []byte) bool { n += len(seg); return true })
			if n != v.Len() {
				t.Errorf("read %d bytes, want %d", n, v.Len())
			}
			v.Release()
		}()
	}
	v.Release() // the dequeue's own reference
	wg.Wait()
	if m.LentSegments() != 0 {
		t.Fatalf("lent = %d after all releases, want 0", m.LentSegments())
	}
	if m.FreeSegments() != 64 {
		t.Fatalf("free = %d, want 64", m.FreeSegments())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPacketViewDoubleReleasePanics(t *testing.T) {
	m := newPrivate(t, 8, 16).ms[0]
	if _, err := m.EnqueuePacket(0, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	v, err := m.DequeuePacketView(0)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	v.Release()
}

// TestViewReleaserBatch holds ten views, one of them retained, and
// releases them through one ViewReleaser twice: the retained one survives
// the first pass.
func TestViewReleaserBatch(t *testing.T) {
	h := newShared(t, 8, 256, 0, 1)
	for i := range 10 {
		h.do(oEnqueuePacket, i%4, 3*SegmentBytes)
	}
	for i, q := range []int{0, 0, 0, 1, 1, 1, 2, 2, 3, 3} {
		h.do(oView, q, 1, b2i(i == 3)).is(nil)
	}
	retained := h.held[3].v
	h.do(oRelease, 0).do(oRelease, 0)
	// A drained accumulator flushes as a no-op, and over-release through
	// the accumulator panics like a direct Release.
	var r ViewReleaser
	r.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after final release did not panic")
		}
	}()
	r.Add(retained)
}

// TestReserveCommitRoundTrip: with the reservation open its segments are
// lent and the queue is empty; Commit links it, a second terminal call is
// refused (the harness checks both).
func TestReserveCommitRoundTrip(t *testing.T) {
	newPrivate(t, 8, 64).do(oReserve, 3, 2*SegmentBytes+5, 2).is(nil).do(oSettle, 0, 1).do(oDequeuePacket, 3).is(nil)
}

func TestReserveAbort(t *testing.T) {
	m := newShared(t, 8, 16, 0, 1).ms[0]
	w, err := m.ReservePacket(0, 3*SegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- w.Abort() }() // any-goroutine, like a failed readv
	if err := <-done; err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := w.Abort(); !errors.Is(err, ErrWriterDone) {
		t.Fatalf("second abort: %v, want ErrWriterDone", err)
	}
	if m.LentSegments() != 0 || m.FreeSegments() != 16 {
		t.Fatalf("lent=%d free=%d after abort, want 0/16", m.LentSegments(), m.FreeSegments())
	}
	if n, _ := m.Len(0); n != 0 {
		t.Fatalf("queue len = %d after abort, want 0", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveErrors(t *testing.T) {
	newPrivate(t, 8, 4).do(oReserve, 0, 0).is(ErrBadLength).do(oReserve, 0, 5*SegmentBytes).is(ErrNoFreeSegments).
		do(oLimit, 0, 1).do(oReserve, 0, 2*SegmentBytes).is(ErrQueueLimit)
}

// TestViewLifecycleProperty mixes copy enqueues, reservations (committed
// and aborted), copy dequeues and view dequeues with cross-goroutine
// releases, then checks conservation: everything lent comes back, and the
// pool refills exactly.
func TestViewLifecycleProperty(t *testing.T) {
	const pool = 256
	m := newShared(t, 8, pool, 0, 1).ms[0]
	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	release := func(v PacketView) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Release()
		}()
	}
	payload := make([]byte, 4*SegmentBytes)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	for step := 0; step < 4000; step++ {
		q := QueueID(rng.Intn(8))
		n := 1 + rng.Intn(len(payload)-1)
		switch rng.Intn(5) {
		case 0:
			_, _ = m.EnqueuePacket(q, payload[:n])
		case 1:
			w, err := m.ReservePacket(q, n)
			if err != nil {
				continue
			}
			off := 0
			w.Range(func(seg []byte) bool {
				off += copy(seg, payload[off:n])
				return true
			})
			if rng.Intn(4) == 0 {
				if err := w.Abort(); err != nil {
					t.Fatalf("abort: %v", err)
				}
			} else if err := w.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		case 2:
			if data, _, err := m.DequeuePacket(q); err == nil {
				if len(data) == 0 {
					t.Fatal("empty copy dequeue")
				}
			}
		default:
			v, err := m.DequeuePacketView(q)
			if err != nil {
				continue
			}
			if got := v.AppendTo(nil); !bytes.Equal(got, payload[:v.Len()]) {
				t.Fatalf("step %d: view payload mismatch (%d bytes)", step, v.Len())
			}
			if rng.Intn(3) == 0 {
				release(v)
			} else {
				v.Release()
			}
		}
		if step%256 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Drain the queues through the view path and wait out the releasers.
	for q := QueueID(0); q < 8; q++ {
		for {
			v, err := m.DequeuePacketView(q)
			if err != nil {
				break
			}
			release(v)
		}
	}
	wg.Wait()
	if m.LentSegments() != 0 {
		t.Fatalf("lent = %d after drain, want 0", m.LentSegments())
	}
	if m.FreeSegments() != pool {
		t.Fatalf("free = %d after drain, want %d", m.FreeSegments(), pool)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
