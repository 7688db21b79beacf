package engine

// Failure contracts at the engine's edges (ROADMAP item 1a): what is left
// when a critical section panics, and when Close finds segments checked out
// in a reservation or in views. Each ends with every segment back in the
// pool. They run on the stepped clock: no pacer goroutine, no sleeps.

import (
	"errors"
	"testing"

	"npqm/internal/queue"
)

// TestContractRunPanicReleasesShard: a panic inside a run section unwinds
// with the shard mutex released and the free-count mirror published, so the
// shard's other flows go on being served.
func TestContractRunPanicReleasesShard(t *testing.T) {
	const pool = 256
	e := newStepped(t, Config{Shards: 2, NumFlows: 16, NumSegments: pool})
	defer e.Close()
	const flow = 3
	s := e.shardOf(flow)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the section's own panic", r)
			}
		}()
		e.run(s, func() {
			// Work done before the panic stays done, and stays counted.
			if _, _, err := e.arrive(s, flow, make([]byte, 3*queue.SegmentBytes), 3*queue.SegmentBytes, nil, false); err != nil {
				t.Error(err)
			}
			panic("boom")
		})
	}()
	if !s.mu.TryLock() {
		t.Fatal("shard mutex still held after a panicking section")
	}
	s.mu.Unlock()
	if n, err := e.Len(flow); err != nil || n != 3 {
		t.Fatalf("Len after the panic = (%d, %v), want (3, nil)", n, err)
	}
	if free := e.FreeSegments(); free != pool-3 {
		t.Fatalf("FreeSegments = %d, want %d: the section ended without publishing", free, pool-3)
	}
	if _, err := e.DeletePacket(flow); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, e.Engine, pool)
}

// TestContractCloseWithOpenReservation: a reservation open across Close
// keeps its run lent and the books balanced; Commit is refused with
// ErrClosed and leaves it open; Abort returns the run.
func TestContractCloseWithOpenReservation(t *testing.T) {
	const pool = 256
	e := newStepped(t, Config{Shards: 2, NumFlows: 16, NumSegments: pool})
	r, err := e.ReservePacket(5, 4*queue.SegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lent := e.LentSegments(); lent != 4 {
		t.Fatalf("LentSegments = %d with a 4-segment reservation open across Close", lent)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("books with a reservation open across Close: %v", err)
	}
	if err := r.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit after Close = %v, want ErrClosed", err)
	}
	if !r.Valid() {
		t.Fatal("a refused Commit closed the reservation: its run can no longer be returned")
	}
	if st := e.Stats(); st.EnqueuedPackets != 0 || st.QueuedSegments != 0 {
		t.Fatalf("refused Commit enqueued: %d packets, %d segments resident", st.EnqueuedPackets, st.QueuedSegments)
	}
	if err := r.Abort(); err != nil {
		t.Fatalf("Abort after Close: %v", err)
	}
	if err := r.Abort(); !errors.Is(err, queue.ErrWriterDone) {
		t.Fatalf("second Abort = %v, want ErrWriterDone", err)
	}
	checkNoLeaks(t, e.Engine, pool)
}

// TestContractCloseWithRetainedViews: views held across Close — one pulled,
// the rest retained by a push-mode sink — stay readable and lent, and
// Release after Close returns each chain to the pool.
func TestContractCloseWithRetainedViews(t *testing.T) {
	const pool = 256
	e := newStepped(t, Config{Shards: 2, NumFlows: 16, NumSegments: pool})
	payload := make([]byte, 2*queue.SegmentBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	for f := uint32(0); f < 4; f++ {
		if _, err := e.EnqueuePacket(f, payload); err != nil {
			t.Fatal(err)
		}
	}
	pulled, ok := e.DequeueNextView()
	if !ok {
		t.Fatal("no packet to pull")
	}
	held := []PacketView{pulled.View}
	if err := e.ServeViews(0, SinkVFunc(func(_ int, d DequeuedView) error {
		d.View.Retain() // the engine drops its own reference when this returns
		held = append(held, d.View)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	e.settle()
	if len(held) != 4 {
		t.Fatalf("holding %d views, want all 4 packets", len(held))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lent := e.LentSegments(); lent != 8 {
		t.Fatalf("LentSegments = %d with four 2-segment views held across Close", lent)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("books with views held across Close: %v", err)
	}
	for i, v := range held {
		if got := v.AppendTo(nil); string(got) != string(payload) {
			t.Fatalf("view %d unreadable after Close: %d bytes", i, len(got))
		}
		v.Release()
	}
	checkNoLeaks(t, e.Engine, pool)
}
