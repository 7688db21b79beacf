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

func TestDequeuePacketViewBothDatapaths(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			const pool = 1024
			e := newTest(t, 4, 256, pool)
			if ring {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			pkt := bytes.Repeat([]byte{0xa5}, 200)
			if _, err := e.EnqueuePacket(7, pkt); err != nil {
				t.Fatal(err)
			}
			v, err := e.DequeuePacketView(7)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.AppendTo(nil); !bytes.Equal(got, pkt) {
				t.Fatalf("payload mismatch: %d bytes", len(got))
			}
			if got := e.LentSegments(); got != v.Segments() {
				t.Fatalf("LentSegments = %d with view out, want %d", got, v.Segments())
			}
			// The dequeue is on the books before the release.
			if st := e.Stats(); st.DequeuedPackets != 1 {
				t.Fatalf("DequeuedPackets = %d, want 1", st.DequeuedPackets)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants with view outstanding: %v", err)
			}
			v.Release()
			if _, err := e.DequeuePacketView(7); !errors.Is(err, queue.ErrQueueEmpty) {
				t.Fatalf("empty queue: %v", err)
			}
			checkNoLeaks(t, e, pool)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DequeuePacketView(7); !errors.Is(err, ErrClosed) {
				t.Fatalf("after close: %v", err)
			}
		})
	}
}

func TestReserveCommitBothDatapaths(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			const pool = 1024
			e := newTest(t, 4, 256, pool)
			if ring {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			payload := make([]byte, 3*queue.SegmentBytes+9)
			for i := range payload {
				payload[i] = byte(i * 11)
			}
			r, err := e.ReservePacket(5, len(payload))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Valid() || r.Flow() != 5 || r.Len() != len(payload) || r.Segments() != 4 {
				t.Fatalf("reservation shape: valid=%v flow=%d len=%d segs=%d",
					r.Valid(), r.Flow(), r.Len(), r.Segments())
			}
			if got := e.LentSegments(); got != 4 {
				t.Fatalf("LentSegments = %d mid-reserve, want 4", got)
			}
			// Nothing is enqueued until Commit.
			if st := e.Stats(); st.EnqueuedPackets != 0 {
				t.Fatalf("EnqueuedPackets = %d before commit, want 0", st.EnqueuedPackets)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants mid-reserve: %v", err)
			}
			off := 0
			r.Range(func(seg []byte) bool {
				off += copy(seg, payload[off:])
				return true
			})
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := r.Commit(); !errors.Is(err, queue.ErrWriterDone) {
				t.Fatalf("second commit: %v", err)
			}
			st := e.Stats()
			if st.EnqueuedPackets != 1 || st.EnqueuedSegments != 4 {
				t.Fatalf("after commit: %d packets / %d segments enqueued", st.EnqueuedPackets, st.EnqueuedSegments)
			}
			if st.CopiedBytes != 0 {
				t.Fatalf("CopiedBytes = %d on the reserve path, want 0", st.CopiedBytes)
			}
			// The committed packet serves through the view path: still no copy.
			d, ok := e.DequeueNextView()
			if !ok || d.Flow != 5 || d.Bytes != len(payload) {
				t.Fatalf("DequeueNextView = (%+v, %v)", d, ok)
			}
			if got := d.View.AppendTo(nil); !bytes.Equal(got, payload) {
				t.Fatal("committed payload mismatch")
			}
			d.View.Release()
			if st := e.Stats(); st.CopiedBytes != 0 {
				t.Fatalf("CopiedBytes = %d after view delivery, want 0", st.CopiedBytes)
			}
			checkNoLeaks(t, e, pool)

			// Abort mid-reserve: segments come back, nothing was counted.
			r2, err := e.ReservePacket(6, 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := r2.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := r2.Abort(); !errors.Is(err, queue.ErrWriterDone) {
				t.Fatalf("second abort: %v", err)
			}
			if st := e.Stats(); st.EnqueuedPackets != 1 {
				t.Fatalf("abort moved the enqueue counter: %d", st.EnqueuedPackets)
			}
			checkNoLeaks(t, e, pool)

			// Commit on a closed engine fails with the reservation open;
			// Abort still returns the segments.
			r3, err := e.ReservePacket(7, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := r3.Commit(); !errors.Is(err, ErrClosed) {
				t.Fatalf("commit after close: %v", err)
			}
			if err := r3.Abort(); err != nil {
				t.Fatal(err)
			}
			if got := e.LentSegments(); got != 0 {
				t.Fatalf("LentSegments = %d after post-close abort, want 0", got)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReserveAdmission(t *testing.T) {
	e := newTest(t, 1, 8, 64)
	for f := uint32(0); f < 2; f++ {
		if err := e.SetFlowLimit(f, 2); err != nil {
			t.Fatal(err)
		}
	}
	r, err := e.ReservePacket(0, 2*queue.SegmentBytes)
	if err != nil {
		t.Fatalf("within limit: %v", err)
	}
	// A reservation exceeding the per-flow cap is refused up front and
	// counted as rejected, exactly like a refused enqueue.
	if _, err := e.ReservePacket(1, 3*queue.SegmentBytes); !errors.Is(err, queue.ErrQueueLimit) {
		t.Fatalf("over per-flow limit: %v", err)
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if err := r.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueViewBatchAndNextViewBatch(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			const pool = 2048
			e := newTest(t, 4, 64, pool)
			if ring {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			const flows = 16
			for f := uint32(0); f < flows; f++ {
				pkt := bytes.Repeat([]byte{byte(f)}, 100+int(f))
				if _, err := e.EnqueuePacket(f, pkt); err != nil {
					t.Fatal(err)
				}
			}
			// Per-flow batch: every listed flow yields its head packet.
			list := make([]uint32, 0, flows/2)
			for f := uint32(0); f < flows/2; f++ {
				list = append(list, f)
			}
			views, errs := e.DequeueViewBatch(list)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("flow %d: %v", list[i], err)
				}
				want := bytes.Repeat([]byte{byte(list[i])}, 100+int(list[i]))
				if got := views[i].AppendTo(nil); !bytes.Equal(got, want) {
					t.Fatalf("flow %d payload mismatch", list[i])
				}
				views[i].Release()
			}
			// Discipline-picked batch drains the rest.
			seen := 0
			for {
				batch := e.DequeueNextViewBatch(5)
				if len(batch) == 0 {
					break
				}
				for _, d := range batch {
					if d.Bytes != d.View.Len() {
						t.Fatalf("Bytes=%d but view holds %d", d.Bytes, d.View.Len())
					}
					d.View.Release()
					seen++
				}
			}
			if seen != flows/2 {
				t.Fatalf("drained %d packets, want %d", seen, flows/2)
			}
			checkNoLeaks(t, e, pool)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
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
			deadline := time.After(30 * time.Second)
			for e.Stats().QueuedSegments > 0 {
				select {
				case <-deadline:
					t.Fatalf("pipeline stalled: produced=%d consumed=%d queued=%d",
						produced.Load(), consumed.Load(), e.Stats().QueuedSegments)
				default:
					time.Sleep(time.Millisecond)
				}
			}
			close(stop)
			consWG.Wait()
			releasers.Wait()
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
