package engine

// Lifecycle and command-ring tests: Start/Drain/Close semantics, blocking
// calls on a started engine, program order between posted and blocking
// calls, conservation across a Close with commands still in flight, and the
// post-Close error contract. The concurrent tests are meaningful under
// -race (CI runs them so).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

func newRingEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRingBlockingWrappers(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 4, NumFlows: 256, NumSegments: 4096})
	defer e.Close()

	pkt := []byte("ring datapath says hello across three segments of payload, give or take a few words to cross 64B")
	n, err := e.EnqueuePacket(7, pkt)
	if err != nil {
		t.Fatalf("EnqueuePacket: %v", err)
	}
	if want := (len(pkt) + queue.SegmentBytes - 1) / queue.SegmentBytes; n != want {
		t.Fatalf("EnqueuePacket linked %d segments, want %d", n, want)
	}
	if l, err := e.Len(7); err != nil || l != n {
		t.Fatalf("Len = (%d, %v), want (%d, nil)", l, err, n)
	}
	got, err := e.DequeuePacket(7)
	if err != nil {
		t.Fatalf("DequeuePacket: %v", err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatalf("payload mismatch: got %q", got)
	}
	e.ReleaseBuffer(got)
	if _, err := e.DequeuePacket(7); !errors.Is(err, queue.ErrQueueEmpty) {
		t.Fatalf("DequeuePacket on empty flow: %v, want ErrQueueEmpty", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRingPerFlowFIFO(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 4096})
	defer e.Close()
	// A blocking dequeue executes what its shard's ring holds before its own
	// work, so it must observe every packet posted before it, in order.
	for i := 0; i < 32; i++ {
		pkt := []byte(fmt.Sprintf("flow5-packet-%02d", i))
		if err := e.EnqueueAsync(5, pkt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		got, err := e.DequeuePacket(5)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if want := fmt.Sprintf("flow5-packet-%02d", i); string(got) != want {
			t.Fatalf("packet %d = %q, want %q", i, got, want)
		}
		e.ReleaseBuffer(got)
	}
}

// TestPostedThenBlockingKeepsProgramOrder: a goroutine's blocking call must
// see its own earlier EnqueueAsync. Eight goroutines share one shard's small
// ring, so a goroutine's published post regularly sits behind another's
// claimed-but-unpublished slot: a drain that returned there instead of
// waiting for the slot would run the blocking call first, and the flow would
// deliver seq+1 before seq (or find its queue empty).
func TestPostedThenBlockingKeepsProgramOrder(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 1, NumFlows: 16, NumSegments: 1024, RingCapacity: 64})
	defer e.Close()
	const goroutines, rounds = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(f uint32) {
			defer wg.Done()
			for seq := uint32(0); seq < 2*rounds; seq += 2 {
				if err := e.EnqueueAsync(f, seqPayload(seq)); err != nil {
					t.Errorf("flow %d: post %d: %v", f, seq, err)
					return
				}
				if _, err := e.EnqueuePacket(f, seqPayload(seq+1)); err != nil {
					t.Errorf("flow %d: enqueue %d: %v", f, seq+1, err)
					return
				}
				for want := seq; want < seq+2; want++ {
					data, err := e.DequeuePacket(f)
					if err != nil {
						t.Errorf("flow %d: dequeue %d: %v", f, want, err)
						return
					}
					if got := binary.LittleEndian.Uint32(data); got != want {
						t.Errorf("flow %d: dequeued seq %d, want %d — a blocking call overtook the goroutine's own post", f, got, want)
						return
					}
					e.ReleaseBuffer(data)
				}
			}
		}(uint32(g))
	}
	wg.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.QueuedSegments != 0 || st.EnqueuedPackets != goroutines*2*rounds {
		t.Fatalf("after the run: %d segments queued, %d packets enqueued, want 0 and %d",
			st.QueuedSegments, st.EnqueuedPackets, goroutines*2*rounds)
	}
}

func TestRingBatchPaths(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 8, NumFlows: 512, NumSegments: 8192})
	defer e.Close()
	const burst = 96
	batch := make([]EnqueueReq, burst)
	flows := make([]uint32, burst)
	pkt := make([]byte, 200)
	for i := range batch {
		f := uint32(i * 5 % 512)
		batch[i] = EnqueueReq{Flow: f, Data: pkt}
		flows[i] = f
	}
	segs, errs := e.EnqueueBatch(batch)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("EnqueueBatch[%d]: %v", i, err)
		}
	}
	if want := burst * ((len(pkt) + queue.SegmentBytes - 1) / queue.SegmentBytes); segs != want {
		t.Fatalf("EnqueueBatch linked %d segments, want %d", segs, want)
	}
	pkts, errs := e.DequeueBatch(flows)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("DequeueBatch[%d]: %v", i, err)
		}
		if len(pkts[i]) != len(pkt) {
			t.Fatalf("DequeueBatch[%d] returned %d bytes, want %d", i, len(pkts[i]), len(pkt))
		}
		e.ReleaseBuffer(pkts[i])
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRingEgressAndMove(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 4, NumFlows: 128, NumSegments: 4096})
	defer e.Close()
	for f := uint32(0); f < 16; f++ {
		if _, err := e.EnqueuePacket(f, []byte("egress")); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-shard move: pick two flows on different shards.
	from, to := uint32(0), uint32(1)
	for e.ShardOf(to) == e.ShardOf(from) {
		to++
	}
	if _, err := e.MovePacket(from, to); err != nil {
		t.Fatalf("MovePacket: %v", err)
	}
	if l, _ := e.Len(to); l != 2 {
		t.Fatalf("destination holds %d segments after move, want 2", l)
	}
	served := 0
	for {
		out := e.DequeueNextBatch(8)
		if len(out) == 0 {
			break
		}
		for _, d := range out {
			e.ReleaseBuffer(d.Data)
			served++
		}
	}
	if served != 16 {
		t.Fatalf("egress served %d packets, want 16", served)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRingLQDGlobalEviction(t *testing.T) {
	e := newRingEngine(t, Config{
		Shards: 4, NumFlows: 64, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	defer e.Close()
	pkt := make([]byte, 4*queue.SegmentBytes)
	// Fill the pool from one hog flow, then arrive on others: LQD must push
	// the hog out rather than refuse the newcomers. (The fill is counted,
	// not error-terminated: under LQD the hog itself is the longest queue,
	// so an overfilling hog self-evicts instead of erroring.)
	hog := uint32(3)
	for i := 0; i < 64/4; i++ {
		if _, err := e.EnqueuePacket(hog, pkt); err != nil {
			t.Fatalf("hog fill %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.QueuedSegments < 56 {
		t.Fatalf("hog only buffered %d segments", st.QueuedSegments)
	}
	accepted := 0
	for f := uint32(10); f < 20; f++ {
		if _, err := e.EnqueuePacket(f, pkt); err == nil {
			accepted++
		} else if !errors.Is(err, ErrAdmissionDrop) {
			t.Fatalf("EnqueuePacket(%d): %v", f, err)
		}
	}
	if accepted == 0 {
		t.Fatal("LQD admitted none of the newcomers")
	}
	if st := e.Stats(); st.PushedOutPackets == 0 {
		t.Fatal("no push-outs recorded")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStartWhileTrafficFlows(t *testing.T) {
	e, err := New(Config{Shards: 8, NumFlows: 1024, NumSegments: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 3000
	var posted atomic.Uint64
	var wg sync.WaitGroup
	pkt := make([]byte, 100)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := uint32(w*perWorker+i) % 1024
				if _, err := e.EnqueuePacket(f, pkt); err == nil {
					posted.Add(1)
				}
				if data, err := e.DequeuePacket(f); err == nil {
					e.ReleaseBuffer(data)
				}
			}
		}(w)
	}
	// Start mid-traffic: the calls in flight hold shard mutexes while the
	// rings are installed under them.
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EnqueuedPackets != posted.Load() {
		t.Fatalf("enqueued %d packets, callers saw %d accepted", st.EnqueuedPackets, posted.Load())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseDrainsInFlightWithoutLoss(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 8, NumFlows: 2048, NumSegments: 1 << 15})
	const producers = 4
	var posted atomic.Uint64
	var drained atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pkt := make([]byte, 96)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := uint32(p*100003+i) % 2048
				if err := e.EnqueueAsync(f, pkt); err != nil {
					return // ErrClosed: the engine shut down under us
				}
				posted.Add(1)
			}
		}(p)
	}
	// Concurrent consumers drain through the egress scheduler.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				out := e.DequeueNextBatch(32)
				for _, d := range out {
					e.ReleaseBuffer(d.Data)
					drained.Add(1)
				}
				if len(out) == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	// Let traffic build, then close with commands still in flight.
	for posted.Load() < 20_000 {
	}
	close(stop)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// No accepted command may be lost: every EnqueueAsync that returned nil
	// was executed — linked, or refused by the pool when consumers fell
	// behind (counted in Rejected) — and every linked packet is either
	// delivered or still resident.
	st := e.Stats()
	if got := st.EnqueuedPackets + st.Rejected + st.DroppedPackets; got != posted.Load() {
		t.Fatalf("posted %d packets, engine accounted for %d (enqueued %d, rejected %d, dropped %d)",
			posted.Load(), got, st.EnqueuedPackets, st.Rejected, st.DroppedPackets)
	}
	if st.DequeuedPackets < drained.Load() {
		t.Fatalf("consumers drained %d, engine says %d", drained.Load(), st.DequeuedPackets)
	}
	if got, want := st.EnqueuedSegments, st.DequeuedSegments+uint64(st.QueuedSegments); got != want {
		t.Fatalf("segment conservation after Close: enqueued %d != dequeued %d + resident %d",
			got, st.DequeuedSegments, st.QueuedSegments)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleCloseAndPostCloseErrors(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 2, NumFlows: 64, NumSegments: 512})
	if _, err := e.EnqueuePacket(1, []byte("resident")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if _, err := e.EnqueuePacket(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("EnqueuePacket after Close: %v, want ErrClosed", err)
	}
	if err := e.EnqueueAsync(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("EnqueueAsync after Close: %v, want ErrClosed", err)
	}
	if _, err := e.DequeuePacket(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("DequeuePacket after Close: %v, want ErrClosed", err)
	}
	if _, err := e.MovePacket(1, 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("MovePacket after Close: %v, want ErrClosed", err)
	}
	if _, err := e.DeletePacket(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("DeletePacket after Close: %v, want ErrClosed", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close: %v, want ErrClosed", err)
	}
	if err := e.Start(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close: %v, want ErrClosed", err)
	}
	if _, errs := e.EnqueueBatch([]EnqueueReq{{Flow: 1, Data: []byte("x")}}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("EnqueueBatch after Close: %v, want ErrClosed", errs[0])
	}
	if _, errs := e.DequeueBatch([]uint32{1}); !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("DequeueBatch after Close: %v, want ErrClosed", errs[0])
	}
	if out := e.DequeueNextBatch(4); len(out) != 0 {
		t.Fatalf("DequeueNextBatch after Close served %d packets", len(out))
	}
	// The observation surface stays up: the resident packet is visible and
	// the structures are intact.
	if l, err := e.Len(1); err != nil || l != 1 {
		t.Fatalf("Len after Close = (%d, %v), want (1, nil)", l, err)
	}
	if st := e.Stats(); st.QueuedSegments != 1 {
		t.Fatalf("Stats after Close: %d resident segments, want 1", st.QueuedSegments)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainFlushesAsyncBacklog(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 4, NumFlows: 256, NumSegments: 1 << 13})
	defer e.Close()
	pkt := make([]byte, 64)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := e.EnqueueAsync(uint32(i%256), pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EnqueuedPackets != n {
		t.Fatalf("after Drain only %d of %d async enqueues executed", st.EnqueuedPackets, n)
	}
}

func TestUnknownFlowSentinel(t *testing.T) {
	e, err := New(Config{Shards: 2, NumFlows: 128, NumSegments: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFlowLimit(128, 10); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("SetFlowLimit(out of range): %v, want ErrUnknownFlow", err)
	}
	if err := e.SetWeight(1<<20, 3); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("SetWeight(out of range): %v, want ErrUnknownFlow", err)
	}
	if err := e.SetFlowLimit(127, 10); err != nil {
		t.Fatalf("SetFlowLimit(in range): %v", err)
	}
	if err := e.SetWeight(127, 3); err != nil {
		t.Fatalf("SetWeight(in range): %v", err)
	}
	// The sentinel also holds on the ring datapath.
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetFlowLimit(129, 10); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("ring SetFlowLimit(out of range): %v, want ErrUnknownFlow", err)
	}
	if err := e.SetWeight(129, 2); !errors.Is(err, ErrUnknownFlow) {
		t.Fatalf("ring SetWeight(out of range): %v, want ErrUnknownFlow", err)
	}
}

func TestResidenceSampling(t *testing.T) {
	for _, datapath := range []string{"sync", "ring"} {
		t.Run(datapath, func(t *testing.T) {
			e, err := New(Config{
				Shards: 4, NumFlows: 256, NumSegments: 4096,
				ResidenceSample: 1, // stamp every packet
			})
			if err != nil {
				t.Fatal(err)
			}
			if datapath == "ring" {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				defer e.Close()
			}
			pkt := make([]byte, 128)
			const n = 500
			for i := 0; i < n; i++ {
				if _, err := e.EnqueuePacket(uint32(i%256), pkt); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				data, err := e.DequeuePacket(uint32(i % 256))
				if err != nil {
					t.Fatal(err)
				}
				e.ReleaseBuffer(data)
			}
			st := e.Stats()
			if st.ResidenceSamples != n {
				t.Fatalf("%d residence samples, want %d", st.ResidenceSamples, n)
			}
			if st.ResidenceP50Ns <= 0 || st.ResidenceP99Ns < st.ResidenceP50Ns {
				t.Fatalf("implausible quantiles: p50=%v p99=%v", st.ResidenceP50Ns, st.ResidenceP99Ns)
			}
			if st.ResidenceMaxNs < st.ResidenceP99Ns {
				t.Fatalf("max %v below p99 %v", st.ResidenceMaxNs, st.ResidenceP99Ns)
			}
			// Deletes and moves must not record residence samples, but must
			// keep the sequence spaces aligned for later dequeues.
			if _, err := e.EnqueuePacket(1, pkt); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DeletePacket(1); err != nil {
				t.Fatal(err)
			}
			if got := e.Stats().ResidenceSamples; got != n {
				t.Fatalf("delete recorded a residence sample: %d, want %d", got, n)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRingDequeueNextSmallBudgetFindsBacklog(t *testing.T) {
	e := newRingEngine(t, Config{Shards: 8, NumFlows: 256, NumSegments: 2048})
	defer e.Close()
	// A single resident packet on whatever shard: DequeueNextBatch with a
	// budget smaller than the shard count must still find it, for every
	// possible rotation offset of the fan-out.
	for trial := 0; trial < 16; trial++ {
		f := uint32(trial * 37 % 256)
		if _, err := e.EnqueuePacket(f, []byte("lonely")); err != nil {
			t.Fatal(err)
		}
		out := e.DequeueNextBatch(2) // 2 < 8 shards: most shards get budget 0
		if len(out) != 1 {
			t.Fatalf("trial %d: DequeueNextBatch(2) found %d packets, want 1", trial, len(out))
		}
		if out[0].Flow != f {
			t.Fatalf("trial %d: served flow %d, want %d", trial, out[0].Flow, f)
		}
		e.ReleaseBuffer(out[0].Data)
	}
}
