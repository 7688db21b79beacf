package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

func newTest(t *testing.T, shards, flows, segments int) *Engine {
	t.Helper()
	e, err := New(Config{Shards: shards, NumFlows: flows, NumSegments: segments})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConfigValidation: New refuses a malformed Config with an error naming
// the field at fault, and normalizes the rest.
func TestConfigValidation(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		field string
	}{
		{Config{Shards: -1, NumSegments: 16}, "Shards"},
		{Config{NumFlows: -3, NumSegments: 16}, "NumFlows"},
		{Config{Shards: 8}, "NumSegments"},
	} {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New(%+v) = %v, want an error naming %s", c.cfg, err, c.field)
		}
	}
	// Config is the normalized configuration: every zero default filled, a
	// shard count rounded up to a power of two, and the pool shared, so
	// fewer segments than shards is legal.
	eg := policy.EgressConfig{DefaultWeight: 1, QuantumBytes: 512}
	for _, c := range [][2]Config{
		{{NumSegments: 1024}, {Shards: DefaultShards, NumFlows: queue.DefaultNumQueues, NumSegments: 1024, NumPorts: 1, RingCapacity: DefaultRingCapacity, Egress: eg}},
		{{Shards: 5, NumFlows: 16, NumSegments: 4}, {Shards: 8, NumFlows: 16, NumSegments: 4, NumPorts: 1, RingCapacity: DefaultRingCapacity, Egress: eg}},
	} {
		if e, err := New(c[0]); err != nil || !reflect.DeepEqual(e.Config(), c[1]) {
			t.Errorf("New(%+v) = %v; want Config() %+v", c[0], err, c[1])
		}
	}
}

func TestShardOfStable(t *testing.T) {
	e := newTest(t, 16, 1024, 4096)
	for flow := uint32(0); flow < 1024; flow++ {
		a, b := e.shardIndex(flow), e.shardIndex(flow)
		if a != b {
			t.Fatalf("shardIndex(%d) unstable: %d vs %d", flow, a, b)
		}
		if a < 0 || a >= len(e.shards) {
			t.Fatalf("shardIndex(%d) = %d out of range", flow, a)
		}
	}
}

func TestShardBalance(t *testing.T) {
	// Sequential flow IDs (the common traffic-generator pattern) must
	// spread across shards, not pile onto one.
	e := newTest(t, 16, 32768, 65536)
	counts := make([]int, len(e.shards))
	for flow := uint32(0); flow < 32768; flow++ {
		counts[e.shardIndex(flow)]++
	}
	want := 32768 / len(e.shards)
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d owns %d of 32768 flows (ideal %d)", i, c, want)
		}
	}
}

// TestRoundTrip: one packet in, its occupancy read, the same bytes out, and
// an empty flow's dequeue refused.
func TestRoundTrip(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 1024}, false,
		script{}.do(cEnqueue, 7, bytesArg(200)).do(cRead, 7).do(cDequeue, 7, 0).do(cDequeue, 7, 0))
}

// TestMovePacketSameAndCrossShard: a move to a flow on the same shard (0 to
// 2, of four) and to one on another (0 to 1) delivers the same bytes, and
// neither is an arrival or a departure on the books.
func TestMovePacketSameAndCrossShard(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 4096}, false,
		script{}.do(cEnqueue, 0, bytesArg(150)).do(cMove, 0, 2).do(cDequeue, 2, 0).
			do(cEnqueue, 0, bytesArg(150)).do(cMove, 0, 1).do(cDequeue, 1, 0))
}

// TestMovePacketCrossShardNoData: a cross-shard move relinks the packet's
// chain on the shared slab: the destination holds its segments, the source
// none.
func TestMovePacketCrossShardNoData(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 4096}, false,
		script{}.do(cEnqueue, 0, bytesArg(130)).do(cMove, 0, 1).do(cRead, 1).do(cRead, 0))
}

// TestPerFlowLimit: a flow at its segment cap rejects the next packet
// (counted), and takes it once the cap is lifted.
func TestPerFlowLimit(t *testing.T) {
	h := runEngine(t, Config{Shards: 2, NumFlows: 64, NumSegments: 256}, false,
		script{}.do(cLimit, 3, 2).do(cEnqueue, 3, segsArg(2)).do(cEnqueue, 3, segsArg(1)).
			do(cLimit, 3, 0).do(cEnqueue, 3, segsArg(1)))
	if c := h.m.c; c.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", c.Rejected)
	}
}

// TestBatchRoundTrip: a hundred packets over eight flows go in by batch —
// three in a row to a flow — and come out by batch, each flow's in the
// order the batches listed them.
func TestBatchRoundTrip(t *testing.T) {
	s := script{}
	for i := 0; i < 96; i += 8 {
		s = s.do(cBatch, 7)
		for j := i; j < i+8; j++ {
			s = append(s, byte(j/3%8), byte(bytesArg(100)))
		}
	}
	for f := 0; f < 8; f++ {
		s = s.do(cDequeueBatch, 6, f, f, f, f, f, f, f, 0).do(cDequeueBatch, 5, f, f, f, f, f, f, 0)
	}
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 2048}, false, s)
}

// TestBatchPartialFailure: a packet the pool cannot hold fails alone; the
// batch's good packets are linked.
func TestBatchPartialFailure(t *testing.T) {
	runEngine(t, Config{Shards: 2, NumFlows: 64, NumSegments: 32}, false,
		script{}.do(cBatch, 2, 1, segsArg(1), 2, segsArg(35), 3, segsArg(1)))
}

// TestConcurrentConservation hammers the engine from concurrent producers
// and consumers, then drains and checks that no segment was leaked or
// double-freed: allocated + free == total across shards. Run under -race.
func TestConcurrentConservation(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		flows     = 512
		perProd   = 2000
		segments  = 8192
	)
	e := newTest(t, 8, flows, segments)
	var prodWG, consWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			pkt := make([]byte, 130) // 3 segments
			for i := 0; i < perProd; i++ {
				flow := uint32((p*perProd + i) % flows)
				if _, err := e.EnqueuePacket(flow, pkt); err != nil &&
					!errors.Is(err, queue.ErrNoFreeSegments) {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				flow := uint32((c*1000 + i) % flows)
				data, err := e.DequeuePacket(flow)
				if err == nil {
					e.ReleaseBuffer(data)
				} else if !errors.Is(err, queue.ErrQueueEmpty) && !errors.Is(err, queue.ErrNoPacket) {
					t.Errorf("consumer %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	// Wait for producers, stop consumers, then drain what is left.
	prodWG.Wait()
	close(stop)
	consWG.Wait()

	for f := uint32(0); f < flows; f++ {
		for {
			data, err := e.DequeuePacket(f)
			if err != nil {
				break
			}
			e.ReleaseBuffer(data)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := e.FreeSegments(); free != segments {
		t.Errorf("FreeSegments = %d, want %d after drain", free, segments)
	}
	st := e.Stats()
	if st.EnqueuedSegments != st.DequeuedSegments {
		t.Errorf("segment conservation: enqueued %d != dequeued %d",
			st.EnqueuedSegments, st.DequeuedSegments)
	}
	if st.QueuedSegments != 0 || st.BufferedBytes != 0 {
		t.Errorf("residual occupancy: %+v", st)
	}
}

// TestConcurrentPerFlowFIFO checks FIFO order per flow under concurrency:
// each producer owns a disjoint flow set and stamps packets with sequence
// numbers; each consumer owns a disjoint flow set and asserts that
// sequence numbers arrive strictly in order. Run under -race.
func TestConcurrentPerFlowFIFO(t *testing.T) {
	const (
		workers = 4
		flows   = 64
		perFlow = 500
	)
	e := newTest(t, 8, flows, 16384)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) { // producer for flows w, w+workers, ...
			defer wg.Done()
			for seq := 0; seq < perFlow; seq++ {
				for f := uint32(w); f < flows; f += workers {
					pkt := make([]byte, 72) // 2 segments
					binary.LittleEndian.PutUint32(pkt, uint32(seq))
					for {
						_, err := e.EnqueuePacket(f, pkt)
						if err == nil {
							break
						}
						if !errors.Is(err, queue.ErrNoFreeSegments) {
							t.Errorf("producer flow %d: %v", f, err)
							return
						}
					}
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // consumer for the same flow set
			defer wg.Done()
			next := make(map[uint32]uint32)
			remaining := (flows / workers) * perFlow
			for remaining > 0 {
				for f := uint32(w); f < flows; f += workers {
					data, err := e.DequeuePacket(f)
					if err != nil {
						if errors.Is(err, queue.ErrQueueEmpty) || errors.Is(err, queue.ErrNoPacket) {
							continue
						}
						t.Errorf("consumer flow %d: %v", f, err)
						return
					}
					seq := binary.LittleEndian.Uint32(data)
					e.ReleaseBuffer(data)
					if seq != next[f] {
						t.Errorf("flow %d: got seq %d, want %d", f, seq, next[f])
						return
					}
					next[f]++
					remaining--
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatches drives the batch API from many goroutines at once.
func TestConcurrentBatches(t *testing.T) {
	const (
		workers   = 4
		rounds    = 200
		batchSize = 32
	)
	e := newTest(t, 8, 1024, 32768)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]EnqueueReq, batchSize)
			flows := make([]uint32, batchSize)
			for r := 0; r < rounds; r++ {
				for i := range batch {
					f := uint32((w*rounds+r+i)*7) % 1024
					batch[i] = EnqueueReq{Flow: f, Data: make([]byte, 64)}
					flows[i] = f
				}
				if _, errs := e.EnqueueBatch(batch); errs != nil {
					for _, err := range errs {
						if err != nil && !errors.Is(err, queue.ErrNoFreeSegments) {
							t.Errorf("worker %d enqueue: %v", w, err)
							return
						}
					}
				}
				pkts, errs := e.DequeueBatch(flows)
				for i, err := range errs {
					if err == nil {
						e.ReleaseBuffer(pkts[i])
					} else if !errors.Is(err, queue.ErrQueueEmpty) && !errors.Is(err, queue.ErrNoPacket) {
						t.Errorf("worker %d dequeue: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain and verify conservation.
	for f := uint32(0); f < 1024; f++ {
		for {
			data, err := e.DequeuePacket(f)
			if err != nil {
				break
			}
			e.ReleaseBuffer(data)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := e.FreeSegments(); free != 32768 {
		t.Errorf("FreeSegments = %d, want 32768", free)
	}
}

func TestShardStats(t *testing.T) {
	e := newTest(t, 4, 256, 1024)
	for f := uint32(0); f < 256; f++ {
		if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	per := e.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats len = %d", len(per))
	}
	var pkts uint64
	var queued int
	for _, s := range per {
		pkts += s.EnqueuedPackets
		queued += s.QueuedSegments
		if s.EnqueuedPackets == 0 {
			t.Errorf("shard %d saw no traffic — hash imbalance", s.Shard)
		}
	}
	if pkts != 256 {
		t.Errorf("total enqueued = %d, want 256", pkts)
	}
	if queued != 256 {
		t.Errorf("queued across shards = %d, want 256", queued)
	}
	if st := e.Stats(); st.QueuedSegments+st.FreeSegments != 1024 {
		t.Errorf("queued %d + free %d != pool 1024", st.QueuedSegments, st.FreeSegments)
	}
}

func BenchmarkEngineEnqueueDequeue(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := New(Config{Shards: shards, NumFlows: 4096, NumSegments: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			pkt := make([]byte, 320)
			b.RunParallel(func(pb *testing.PB) {
				var i uint32
				for pb.Next() {
					f := i % 4096
					i++
					if _, err := e.EnqueuePacket(f, pkt); err != nil {
						continue
					}
					if data, err := e.DequeuePacket(f); err == nil {
						e.ReleaseBuffer(data)
					}
				}
			})
		})
	}
}

// TestHotFlowConsumesSharedPool: one flow can take the whole shared pool,
// whichever shard it hashes to, and the pool comes back whole.
func TestHotFlowConsumesSharedPool(t *testing.T) {
	runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 512}, false,
		script{}.rep(513, cEnqueue, 42, segsArg(1)).do(cRead, 42))
}

// TestConcurrentCrossShardMoves hammers cross-shard MovePacket (pointer
// relinking between shards on the shared slab) concurrently with producers
// and consumers, then drains and checks segment conservation and payload
// integrity. Run under -race.
func TestConcurrentCrossShardMoves(t *testing.T) {
	const (
		flows    = 64
		segments = 8192
		perProd  = 3000
	)
	e := newTest(t, 8, flows, segments)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Producers: stamped payloads so corruption is detectable.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pkt := make([]byte, 130)
			for i := 0; i < perProd; i++ {
				for b := range pkt {
					pkt[b] = byte(i)
				}
				f := uint32((p*perProd + i) % flows)
				if _, err := e.EnqueuePacket(f, pkt); err != nil &&
					!errors.Is(err, queue.ErrNoFreeSegments) {
					t.Errorf("producer: %v", err)
					return
				}
			}
		}(p)
	}
	// Movers: shuffle head packets between random flows (mostly cross-shard).
	var moved atomic.Uint64
	for m := 0; m < 3; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				from := uint32((m*31 + i*7) % flows)
				to := uint32((m*17 + i*13) % flows)
				if _, err := e.MovePacket(from, to); err == nil {
					moved.Add(1)
				} else if !errors.Is(err, queue.ErrQueueEmpty) && !errors.Is(err, queue.ErrNoPacket) {
					t.Errorf("mover: %v", err)
					return
				}
			}
		}(m)
	}
	// Consumers: drain through the direct path.
	var consWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				data, err := e.DequeuePacket(uint32((c*100 + i) % flows))
				if err == nil {
					// Every byte of a packet must carry the same stamp:
					// a torn move would interleave two packets.
					for _, b := range data {
						if b != data[0] {
							t.Errorf("corrupt packet: stamp %d vs %d", data[0], b)
							e.ReleaseBuffer(data)
							return
						}
					}
					e.ReleaseBuffer(data)
				} else if !errors.Is(err, queue.ErrQueueEmpty) && !errors.Is(err, queue.ErrNoPacket) {
					t.Errorf("consumer: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	consWG.Wait()
	for f := uint32(0); f < flows; f++ {
		for {
			data, err := e.DequeuePacket(f)
			if err != nil {
				break
			}
			e.ReleaseBuffer(data)
		}
	}
	if moved.Load() == 0 {
		t.Error("no moves succeeded; test exercised nothing")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := e.FreeSegments(); free != segments {
		t.Fatalf("FreeSegments = %d, want %d after drain", free, segments)
	}
	st := e.Stats()
	if st.EnqueuedSegments != st.DequeuedSegments {
		t.Errorf("conservation: enqueued %d != dequeued %d", st.EnqueuedSegments, st.DequeuedSegments)
	}
}

// TestReleaseBoundsPool verifies the reassembly-buffer pool drops oversized
// buffers instead of pinning them: a giant reassembled packet must not
// leave a giant buffer in the pool.
func TestReleaseBoundsPool(t *testing.T) {
	e := newTest(t, 1, 16, 1024)
	big := make([]byte, 200*queue.SegmentBytes)
	if _, err := e.EnqueuePacket(1, big); err != nil {
		t.Fatal(err)
	}
	data, err := e.DequeuePacket(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(big) {
		t.Fatalf("reassembled %d bytes, want %d", len(data), len(big))
	}
	e.ReleaseBuffer(data) // must not be pooled
	for _, segs := range []int{1, mtuBufSegs, maxPooledBufSegs} {
		if buf := e.getBuf(segs); cap(buf) > maxPooledBufBytes {
			t.Fatalf("pool returned a %d-byte buffer, cap is %d", cap(buf), maxPooledBufBytes)
		}
	}
}
