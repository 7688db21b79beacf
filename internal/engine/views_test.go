package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/queue"
)

// checkNoLeaks asserts the post-drain quiescent state every view test must
// end in: nothing lent, nothing queued, the pool whole, both conservation
// laws intact.
func checkNoLeaks(t *testing.T, e *Engine, pool int) {
	t.Helper()
	st := e.Stats()
	if st.LentSegments != 0 {
		t.Fatalf("LentSegments = %d after drain, want 0", st.LentSegments)
	}
	if st.FreeSegments != pool {
		t.Fatalf("FreeSegments = %d after drain, want %d", st.FreeSegments, pool)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDequeuePacketViewBothDatapaths: a view dequeue on either datapath:
// the dequeue is on the books at once, the segments stay lent until the
// release, and a closed engine refuses.
func TestDequeuePacketViewBothDatapaths(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			h := runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 1024}, ring,
				script{}.do(cEnqueue, 7, bytesArg(200)).do(cDequeue, 7, 1).do(cRead, 7).do(cRelease, 0).do(cDequeue, 7, 1))
			if err := h.e.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.e.DequeuePacketView(7); !errors.Is(err, ErrClosed) {
				t.Fatalf("after close: %v", err)
			}
		})
	}
}

// TestReserveCommitBothDatapaths: a reservation lends its run until Commit
// links it (counted then, copying nothing) or Abort returns it (counted
// never). TestContractCloseWithOpenReservation has one open across Close.
func TestReserveCommitBothDatapaths(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 1024}, ring,
				script{}.do(cReserve, 5, bytesArg(3*queue.SegmentBytes+9)).do(cSettle, 0).do(cNext, 1).do(cRelease, 0).
					do(cReserve, 6, bytesArg(100)).do(cSettle, 128))
		})
	}
}

// TestReserveAdmission: a reservation past the flow's cap is refused up
// front and counted as rejected, like a refused enqueue.
func TestReserveAdmission(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 64}, false,
		script{}.do(cLimit, 0, 2).do(cLimit, 1, 2).do(cReserve, 0, segsArg(2)).do(cReserve, 1, segsArg(3)).do(cSettle, 128))
	if c := h.m.c; c.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Rejected)
	}
}

// TestDequeueViewBatchAndNextViewBatch: per-flow view dequeues in a batch
// command's order (cDequeueBatch with its view flag takes each flow through
// DequeuePacketView) and the picked view batch, on either datapath.
func TestDequeueViewBatchAndNextViewBatch(t *testing.T) {
	s := script{}
	for f := range 16 {
		s = s.do(cEnqueue, f, bytesArg(100+f))
	}
	s = s.do(cDequeueBatch, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1).do(cRelease, 1)
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 2048}, ring, s.rep(3, cNextBatch, 1|5<<1))
		})
	}
}

// TestViewPipelineConcurrent is the leak-proofing property test: concurrent
// producers mix copy enqueues with write-in-place reservations (some
// aborted), concurrent consumers take views and hand them to detached
// releaser goroutines (some with extra Retain/Release pairs), on both
// datapaths. At the end every segment must be back: lent 0, pool whole,
// enqueued == dequeued + dropped + pushed out.
func TestViewPipelineConcurrent(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			const (
				pool      = 4096
				producers = 4
				perProd   = 3000
			)
			e, err := New(Config{
				Shards: 4, NumFlows: 64, NumSegments: pool,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ring {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			payload := make([]byte, 4*queue.SegmentBytes)
			for i := range payload {
				payload[i] = byte(i * 13)
			}
			var prodWG, consWG, releasers sync.WaitGroup
			var produced atomic.Uint64
			stop := make(chan struct{})
			for p := 0; p < producers; p++ {
				prodWG.Add(1)
				go func(p int) {
					defer prodWG.Done()
					rng := rand.New(rand.NewSource(int64(p) + 1))
					for n := 0; n < perProd; n++ {
						f := uint32(rng.Intn(64))
						size := 1 + rng.Intn(len(payload)-1)
						if rng.Intn(2) == 0 {
							if _, err := e.EnqueuePacket(f, payload[:size]); err == nil {
								produced.Add(1)
							} else if !errors.Is(err, queue.ErrNoFreeSegments) {
								t.Errorf("enqueue: %v", err)
								return
							}
							continue
						}
						r, err := e.ReservePacket(f, size)
						if err != nil {
							if !errors.Is(err, queue.ErrNoFreeSegments) {
								t.Errorf("reserve: %v", err)
								return
							}
							continue
						}
						off := 0
						r.Range(func(seg []byte) bool {
							off += copy(seg, payload[off:size])
							return true
						})
						if rng.Intn(8) == 0 {
							if err := r.Abort(); err != nil {
								t.Errorf("abort: %v", err)
								return
							}
							continue
						}
						if err := r.Commit(); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
						produced.Add(1)
					}
				}(p)
			}
			var consumed atomic.Uint64
			release := func(d DequeuedView, extraRef bool) {
				releasers.Add(1)
				go func() {
					defer releasers.Done()
					if extraRef {
						d.View.Retain()
						d.View.Release()
					}
					got := d.View.AppendTo(nil)
					if !bytes.Equal(got, payload[:d.Bytes]) {
						t.Errorf("cross-goroutine read mismatch (%d bytes)", d.Bytes)
					}
					d.View.Release()
				}()
			}
			for c := 0; c < 2; c++ {
				consWG.Add(1)
				go func(c int) {
					defer consWG.Done()
					rng := rand.New(rand.NewSource(int64(c) + 100))
					for {
						batch := e.DequeueNextViewBatch(32)
						for _, d := range batch {
							consumed.Add(1)
							release(d, rng.Intn(4) == 0)
						}
						if len(batch) == 0 {
							select {
							case <-stop:
								return
							default:
							}
						}
					}
				}(c)
			}
			// Producers finish first; once the consumers have drained the
			// backlog, signal them to stop and wait out the releasers.
			prodWG.Wait()
			finish := func() {
				close(stop)
				consWG.Wait()
				releasers.Wait()
			}
			waitServed(t, e, fmt.Sprintf("the consumers to drain %d produced packets", produced.Load()),
				finish, func() bool { return e.Stats().QueuedSegments == 0 })
			finish()
			st := e.Stats()
			if st.EnqueuedPackets != produced.Load() || st.DequeuedPackets != consumed.Load() {
				t.Fatalf("books: enq=%d produced=%d deq=%d consumed=%d",
					st.EnqueuedPackets, produced.Load(), st.DequeuedPackets, consumed.Load())
			}
			checkNoLeaks(t, e, pool)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeViewsSinkError checks the push-mode error path: when the view
// sink fails mid-burst, the engine releases the rest of the picked burst
// (dequeued but not transmitted) and no segment leaks.
func TestServeViewsSinkError(t *testing.T) {
	const pool = 2048
	e, err := New(Config{
		Shards: 2, NumFlows: 16, NumSegments: pool, NumPorts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const packets = 40
	for i := 0; i < packets; i++ {
		if _, err := e.EnqueuePacket(uint32(i%16), bytes.Repeat([]byte{byte(i)}, 90)); err != nil {
			t.Fatal(err)
		}
	}
	failAt := int32(5)
	var sent atomic.Int32
	sinkErr := errors.New("link down")
	if err := e.ServeViews(0, SinkVFunc(func(_ int, d DequeuedView) error {
		if sent.Add(1) > failAt {
			return sinkErr
		}
		if d.View.Len() != 90 {
			return fmt.Errorf("view len %d", d.View.Len())
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	// The sink fails on packet failAt+1; the port must stop serving and
	// every picked view — transmitted or not — must come back to the pool.
	deadline := time.After(10 * time.Second)
	for e.LentSegments() != 0 || sent.Load() <= failAt {
		select {
		case <-deadline:
			t.Fatalf("lent=%d sent=%d", e.LentSegments(), sent.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Packets beyond the failed burst are still queued and drainable.
	left := 0
	for {
		batch := e.DequeueNextViewBatch(16)
		if len(batch) == 0 {
			break
		}
		for _, d := range batch {
			d.View.Release()
			left++
		}
	}
	// Everything the pacer picked (transmitted or released on the error)
	// plus the drained remainder accounts for every offered packet.
	if st := e.Stats(); int(st.DequeuedPackets) != packets {
		t.Fatalf("DequeuedPackets = %d, want %d", st.DequeuedPackets, packets)
	}
	checkNoLeaks(t, e, pool)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestViewPathAllocFree pins the acceptance criterion: on the synchronous
// datapath, the full zero-copy round trip — reserve, fill, commit, view
// dequeue, release — performs zero heap allocations per packet.
func TestViewPathAllocFree(t *testing.T) {
	const pool = 1024
	e := newTest(t, 1, 16, pool)
	payload := bytes.Repeat([]byte{0x3c}, 1500)
	fill := func(r *Reservation) {
		off := 0
		r.Range(func(seg []byte) bool {
			off += copy(seg, payload[off:])
			return true
		})
	}
	allocs := testing.AllocsPerRun(200, func() {
		r, err := e.ReservePacket(3, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		fill(&r)
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		v, err := e.DequeuePacketView(3)
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != len(payload) {
			t.Fatal("short view")
		}
		v.Release()
	})
	if allocs != 0 {
		t.Fatalf("view round trip allocates %.1f objects/op, want 0", allocs)
	}
	// The discipline-picked single dequeue is equally clean.
	allocs = testing.AllocsPerRun(200, func() {
		r, err := e.ReservePacket(4, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		fill(&r)
		if err := r.Commit(); err != nil {
			t.Fatal(err)
		}
		d, ok := e.DequeueNextView()
		if !ok {
			t.Fatal("no packet")
		}
		d.View.Release()
	})
	if allocs != 0 {
		t.Fatalf("DequeueNextView round trip allocates %.1f objects/op, want 0", allocs)
	}
	checkNoLeaks(t, e, pool)
}
