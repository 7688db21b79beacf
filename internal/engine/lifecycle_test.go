package engine

// Lifecycle and command-ring tests: Start/Drain/Close semantics, blocking
// calls on a started engine, program order between posted and blocking
// calls, conservation across a Close with commands still in flight, and the
// post-Close error contract. The concurrent tests are meaningful under
// -race (CI runs them so).

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"npqm/internal/policy"
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

// TestRingBlockingWrappers: the blocking calls on a started engine.
func TestRingBlockingWrappers(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 4096}, true,
		script{}.do(cEnqueue, 7, bytesArg(97)).do(cRead, 7).do(cDequeue, 7, 0).do(cDequeue, 7, 0))
}

// TestRingPerFlowFIFO: a blocking dequeue executes what its shard's ring
// holds before its own work, so it observes every packet posted before it,
// in order.
func TestRingPerFlowFIFO(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 4096}, true,
		script{}.rep(32, cPost, 5, bytesArg(16)).rep(32, cDequeue, 5, 0))
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

// TestRingBatchPaths: the batch enqueue and dequeue on a started engine.
func TestRingBatchPaths(t *testing.T) {
	s, flows := script{}, []int{}
	for i := range 96 {
		flows = append(flows, i*5%255)
	}
	for i := 0; i < 96; i += 8 {
		s = s.do(cBatch, 7)
		for _, f := range flows[i : i+8] {
			s = append(s, byte(f), byte(bytesArg(200)))
		}
	}
	for i := 0; i < 96; i += 8 {
		s = s.do(cDequeueBatch, 7)
		for _, f := range flows[i : i+8] {
			s = append(s, byte(f))
		}
		s = append(s, 0)
	}
	runEngine(t, Config{Shards: 8, NumFlows: 255, NumSegments: 8192}, true, s)
}

// TestRingEgressAndMove: a cross-shard move (flow 0 to 1, of four shards)
// and the egress pull on a started engine.
func TestRingEgressAndMove(t *testing.T) {
	s := script{}
	for f := range 16 {
		s = s.do(cEnqueue, f, bytesArg(6))
	}
	runEngine(t, Config{Shards: 4, NumFlows: 128, NumSegments: 4096}, true,
		s.do(cMove, 0, 1).do(cRead, 1).rep(3, cNextBatch, 8<<1))
}

// TestRingLQDGlobalEviction: on a started engine, a hog fills the pool and
// newcomers on other flows push it out instead of being refused.
func TestRingLQDGlobalEviction(t *testing.T) {
	s := script{}.rep(16, cEnqueue, 3, segsArg(4))
	for f := 10; f < 20; f++ {
		s = s.do(cEnqueue, f, segsArg(4))
	}
	h := runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindLQD}}, true, s)
	if c := h.m.c; c.PushedOutPackets == 0 || c.DroppedPackets != 0 {
		t.Fatalf("%d pushed out, %d dropped; want newcomers admitted by push-out", c.PushedOutPackets, c.DroppedPackets)
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

// TestUnknownFlowSentinel: the control plane names a flow outside the flow
// space with ErrUnknownFlow, before and after Start.
func TestUnknownFlowSentinel(t *testing.T) {
	s := script{}.do(cLimit, 128, 10).do(cWeight, 128, 2).do(cRehome, 128, 1).do(cRead, 128).
		do(cLimit, 127, 10).do(cWeight, 127, 2)
	for _, started := range []bool{false, true} {
		runEngine(t, Config{Shards: 2, NumFlows: 128, NumSegments: 512}, started, s)
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

// TestRingDequeueNextSmallBudgetFindsBacklog: a single resident packet on
// whatever shard is found by a DequeueNextBatch whose budget is smaller
// than the shard count, for every rotation offset of the fan-out.
func TestRingDequeueNextSmallBudgetFindsBacklog(t *testing.T) {
	s := script{}
	for trial := range 16 {
		s = s.do(cEnqueue, trial*37%256, 0).do(cNextBatch, 2<<1)
	}
	runEngine(t, Config{Shards: 8, NumFlows: 255, NumSegments: 2048}, true, s)
}
