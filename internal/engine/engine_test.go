package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
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

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: -1, NumSegments: 16}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(Config{Shards: 8}); err == nil {
		t.Error("zero NumSegments accepted")
	}
	if _, err := New(Config{NumFlows: -3, NumSegments: 16}); err == nil {
		t.Error("negative NumFlows accepted")
	}
	// The pool is shared: fewer segments than shards is legal now.
	if _, err := New(Config{Shards: 8, NumSegments: 4}); err != nil {
		t.Errorf("NumSegments < Shards rejected on a shared pool: %v", err)
	}
	// Non-power-of-two shard counts round up.
	e, err := New(Config{Shards: 5, NumFlows: 16, NumSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Config().Shards; got != 8 {
		t.Errorf("Config().Shards = %d, want 8", got)
	}
	// Defaults.
	e, err = New(Config{NumSegments: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Config is the normalized configuration: every zero default filled.
	want := Config{
		Shards: DefaultShards, NumFlows: queue.DefaultNumQueues, NumSegments: 1024,
		NumPorts: 1, RingCapacity: DefaultRingCapacity,
		Egress: policy.EgressConfig{DefaultWeight: 1, QuantumBytes: 512},
	}
	if got := e.Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("Config() = %+v, want %+v", got, want)
	}
}

func TestShardOfStable(t *testing.T) {
	e := newTest(t, 16, 1024, 4096)
	for flow := uint32(0); flow < 1024; flow++ {
		a, b := e.ShardOf(flow), e.ShardOf(flow)
		if a != b {
			t.Fatalf("ShardOf(%d) unstable: %d vs %d", flow, a, b)
		}
		if a < 0 || a >= len(e.shards) {
			t.Fatalf("ShardOf(%d) = %d out of range", flow, a)
		}
	}
}

func TestShardBalance(t *testing.T) {
	// Sequential flow IDs (the common traffic-generator pattern) must
	// spread across shards, not pile onto one.
	e := newTest(t, 16, 32768, 65536)
	counts := make([]int, len(e.shards))
	for flow := uint32(0); flow < 32768; flow++ {
		counts[e.ShardOf(flow)]++
	}
	want := 32768 / len(e.shards)
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d owns %d of 32768 flows (ideal %d)", i, c, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	e := newTest(t, 4, 256, 1024)
	pkt := bytes.Repeat([]byte{0x5a}, 200)
	n, err := e.EnqueuePacket(7, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("enqueued %d segments, want 4", n)
	}
	if l, _ := e.Len(7); l != 4 {
		t.Errorf("Len = %d, want 4", l)
	}
	fi, err := e.Flow(7)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Bytes != 200 || fi.Packets != 1 || fi.Segments != 4 {
		t.Errorf("Flow(7).Occupancy = %+v", fi.Occupancy)
	}
	got, err := e.DequeuePacket(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Errorf("payload mismatch: %d bytes", len(got))
	}
	e.ReleaseBuffer(got)
	if _, err := e.DequeuePacket(7); !errors.Is(err, queue.ErrQueueEmpty) {
		t.Errorf("dequeue of empty flow: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMovePacketSameAndCrossShard(t *testing.T) {
	e := newTest(t, 4, 1024, 4096)
	// Find a same-shard pair and a cross-shard pair.
	same, cross := uint32(0), uint32(0)
	foundSame, foundCross := false, false
	for f := uint32(1); f < 1024; f++ {
		if e.ShardOf(f) == e.ShardOf(0) && !foundSame {
			same, foundSame = f, true
		}
		if e.ShardOf(f) != e.ShardOf(0) && !foundCross {
			cross, foundCross = f, true
		}
		if foundSame && foundCross {
			break
		}
	}
	if !foundSame || !foundCross {
		t.Fatal("could not find shard pairs")
	}
	pkt := bytes.Repeat([]byte{0xcd}, 150)

	if _, err := e.EnqueuePacket(0, pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MovePacket(0, same); err != nil {
		t.Fatalf("same-shard move: %v", err)
	}
	got, err := e.DequeuePacket(same)
	if err != nil || !bytes.Equal(got, pkt) {
		t.Fatalf("same-shard move lost data: %v", err)
	}
	e.ReleaseBuffer(got)

	if _, err := e.EnqueuePacket(0, pkt); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if _, err := e.MovePacket(0, cross); err != nil {
		t.Fatalf("cross-shard move: %v", err)
	}
	// A move is neither an arrival nor a departure: counters must not
	// depend on whether the flows happened to share a shard.
	after := e.Stats()
	if after.EnqueuedPackets != before.EnqueuedPackets ||
		after.DequeuedPackets != before.DequeuedPackets ||
		after.Rejected != before.Rejected {
		t.Errorf("cross-shard move perturbed stats: before %+v after %+v", before, after)
	}
	got, err = e.DequeuePacket(cross)
	if err != nil || !bytes.Equal(got, pkt) {
		t.Fatalf("cross-shard move lost data: %v", err)
	}
	e.ReleaseBuffer(got)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMovePacketCrossShardNoData(t *testing.T) {
	// Cross-shard moves are pointer relinking on the shared slab, so they
	// work even with payload storage off (the pre-segstore engine had to
	// refuse them: it could only move across shards by copying data).
	e, err := New(Config{Shards: 4, NumFlows: 1024, NumSegments: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var cross uint32
	for f := uint32(1); f < 1024; f++ {
		if e.ShardOf(f) != e.ShardOf(0) {
			cross = f
			break
		}
	}
	if _, err := e.EnqueuePacket(0, make([]byte, 130)); err != nil {
		t.Fatal(err)
	}
	if n, err := e.MovePacket(0, cross); err != nil || n != 3 {
		t.Fatalf("cross-shard move without data storage = (%d, %v), want (3, nil)", n, err)
	}
	if l, _ := e.Len(cross); l != 3 {
		t.Errorf("destination holds %d segments, want 3", l)
	}
	if l, _ := e.Len(0); l != 0 {
		t.Errorf("source still holds %d segments", l)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPerFlowLimit(t *testing.T) {
	e := newTest(t, 2, 64, 256)
	if err := e.SetFlowLimit(3, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueuePacket(3, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueuePacket(3, make([]byte, 64)); !errors.Is(err, queue.ErrQueueLimit) {
		t.Errorf("over-limit enqueue: %v", err)
	}
	st := e.Stats()
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if err := e.SetFlowLimit(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.EnqueuePacket(3, make([]byte, 64)); err != nil {
		t.Errorf("enqueue after cap removal: %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	e := newTest(t, 4, 256, 2048)
	const n = 100
	batch := make([]EnqueueReq, n)
	for i := range batch {
		pkt := make([]byte, 100)
		binary.LittleEndian.PutUint32(pkt, uint32(i))
		batch[i] = EnqueueReq{Flow: uint32(i % 8), Data: pkt}
	}
	segs, errs := e.EnqueueBatch(batch)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch[%d]: %v", i, err)
		}
	}
	if segs != n*2 {
		t.Errorf("segments = %d, want %d", segs, n*2)
	}
	st := e.Stats()
	if st.EnqueuedPackets != n || st.QueuedSegments != n*2 {
		t.Errorf("stats after batch: %+v", st)
	}

	// Dequeue everything batch-wise; packets on each flow must come back
	// in the order the enqueue batch listed them.
	flows := make([]uint32, n)
	for i := range flows {
		flows[i] = uint32(i % 8) // same relative order as the enqueues
	}
	// Re-sort flows so that per-flow order of requests matches enqueue
	// order: flow f was enqueued at i = f, f+8, f+16, ...
	k := 0
	for f := uint32(0); f < 8; f++ {
		for i := int(f); i < n; i += 8 {
			flows[k] = f
			k++
		}
	}
	pkts, derrs := e.DequeueBatch(flows)
	k = 0
	for f := uint32(0); f < 8; f++ {
		for i := int(f); i < n; i += 8 {
			if derrs[k] != nil {
				t.Fatalf("dequeue flow %d: %v", f, derrs[k])
			}
			got := binary.LittleEndian.Uint32(pkts[k])
			if got != uint32(i) {
				t.Errorf("flow %d: got packet %d, want %d", f, got, i)
			}
			e.ReleaseBuffer(pkts[k])
			k++
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := e.FreeSegments(); free != 2048 {
		t.Errorf("FreeSegments = %d, want 2048 after full drain", free)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	e := newTest(t, 2, 64, 64)
	big := make([]byte, 65*queue.SegmentBytes) // more than the whole pool
	_, errs := e.EnqueueBatch([]EnqueueReq{
		{Flow: 1, Data: make([]byte, 64)},
		{Flow: 2, Data: big},
		{Flow: 3, Data: make([]byte, 64)},
	})
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("good packets rejected: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], queue.ErrNoFreeSegments) {
		t.Errorf("oversized packet: %v", errs[1])
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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

// TestHotFlowConsumesSharedPool is the shared-buffer acceptance test: with
// several shards, one hot flow must be able to occupy (nearly) the whole
// pool. Under the old per-shard pool split a flow could never exceed
// NumSegments/Shards — 25% here.
func TestHotFlowConsumesSharedPool(t *testing.T) {
	const segments = 4096
	e := newTest(t, 4, 256, segments)
	hot := uint32(42)
	for {
		if _, err := e.EnqueuePacket(hot, make([]byte, queue.SegmentBytes)); err != nil {
			if !errors.Is(err, queue.ErrNoFreeSegments) {
				t.Fatal(err)
			}
			break
		}
	}
	n, err := e.Len(hot)
	if err != nil {
		t.Fatal(err)
	}
	if min := segments * 9 / 10; n < min {
		t.Fatalf("hot flow occupies %d of %d segments, want >= %d (90%%)", n, segments, min)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Drain and confirm the pool comes back whole.
	for {
		data, err := e.DequeuePacket(hot)
		if err != nil {
			break
		}
		e.ReleaseBuffer(data)
	}
	if free := e.FreeSegments(); free != segments {
		t.Fatalf("FreeSegments = %d, want %d after drain", free, segments)
	}
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
