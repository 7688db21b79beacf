package engine

import (
	"errors"
	"sync"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

func seg(n int) []byte { return make([]byte, n*queue.SegmentBytes) }

// newPolicyEngine builds a single-shard engine so admission sees one pool.
func newPolicyEngine(t *testing.T, segments int, adm policy.Config, eg policy.EgressConfig) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:      1,
		NumFlows:    64,
		NumSegments: segments,
		Admission:   adm,
		Egress:      eg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTailDropAdmission: a flow at the tail-drop cap has its next packet
// dropped; another flow still gets in.
func TestTailDropAdmission(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindTailDrop, Limit: 4}}, false,
		script{}.rep(5, cEnqueue, 1, segsArg(1)).do(cEnqueue, 2, segsArg(1)))
	if c := h.m.c; c.DroppedPackets != 1 || c.DroppedSegments != 1 {
		t.Fatalf("drops = (%d, %d), want (1, 1)", c.DroppedPackets, c.DroppedSegments)
	}
}

// TestLQDPushOut: flow 1 hoards 12 of 16 segments in 3-segment packets and
// flow 2 takes the other 4; an arrival on flow 3 pushes out flow 1's head
// packet and is admitted.
func TestLQDPushOut(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 16,
		Admission: policy.Config{Kind: policy.KindLQD}}, false,
		script{}.rep(4, cEnqueue, 1, segsArg(3)).rep(4, cEnqueue, 2, segsArg(1)).
			do(cEnqueue, 3, segsArg(2)).do(cRead, 1).do(cRead, 3))
	if c := h.m.c; c.PushedOutPackets != 1 || c.PushedOutSegments != 3 || c.DroppedPackets != 0 {
		t.Fatalf("push-out (%d, %d), %d dropped; want (1, 3), 0", c.PushedOutPackets, c.PushedOutSegments, c.DroppedPackets)
	}
}

// TestLQDOversizedArrivalDropped: an arrival the pool can never hold is
// dropped, and nothing is evicted for it.
func TestLQDOversizedArrivalDropped(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 8,
		Admission: policy.Config{Kind: policy.KindLQD}}, false,
		script{}.do(cEnqueue, 1, segsArg(4)).do(cEnqueue, 2, segsArg(35)).do(cRead, 1))
	if c := h.m.c; c.DroppedPackets != 1 || c.PushedOutPackets != 0 {
		t.Fatalf("%d dropped, %d pushed out; want 1, 0", c.DroppedPackets, c.PushedOutPackets)
	}
}

// TestREDEngineDropsUnderPressure: RED sheds arrivals as a flood takes the
// pool past its thresholds, and keeps shedding while each admitted packet is
// served at once; the model draws every verdict.
func TestREDEngineDropsUnderPressure(t *testing.T) {
	s := script{}
	for i := range 200 {
		s = s.do(cEnqueue, i%8, segsArg(1))
	}
	for i := range 200 {
		s = s.do(cEnqueue, i%8, segsArg(1)).do(cDequeue, i%8, 0)
	}
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 128,
		Admission: policy.Config{Kind: policy.KindRED, MinTh: 0.1, MaxTh: 0.5, MaxP: 0.8, Weight: 0.5, Seed: 3}}, false, s)
	if h.m.c.DroppedPackets == 0 {
		t.Fatal("RED never dropped above MaxTh")
	}
}

// TestConservationLawAcrossPolicies holds both sides of the books under
// every admission policy on a pool small enough to refuse, while the shard
// workers execute posted enqueues beside the test goroutine's dequeues and
// deletes: the interleaving FuzzEngineCommands, which runs its rings without
// workers, does not reach. Every post met exactly one fate — offered =
// enqueued + dropped + rejected — and every enqueued segment was dequeued,
// pushed out, or is resident.
func TestConservationLawAcrossPolicies(t *testing.T) {
	for _, cfg := range []policy.Config{
		{},
		{Kind: policy.KindTailDrop, Limit: 6},
		{Kind: policy.KindLQD},
		{Kind: policy.KindRED, MinTh: 0.2, MaxTh: 0.6, MaxP: 0.5, Weight: 0.1, Seed: 9},
	} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			const flows, pool, capped = 128, 128, 5
			e, err := New(Config{
				Shards: 4, NumFlows: flows, NumSegments: pool,
				Admission: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.SetFlowLimit(capped, 2); err != nil { // ErrQueueLimit under every policy
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			var offered uint64
			for i := 0; i < 1500; i++ {
				f := uint32(i*7) % flows
				// Two posts to one shard, one to the next flow, one to the
				// capped flow, and now and then a packet the pool can never
				// hold.
				posts := []EnqueueReq{{f, seg(1 + i%3)}, {f, seg(1 + i%3)}, {(f + 1) % flows, seg(1)}, {capped, seg(2)}}
				if i%64 == 0 {
					posts = append(posts, EnqueueReq{f, seg(pool + 1)})
				}
				for _, p := range posts {
					if err := e.EnqueueAsync(p.Flow, p.Data); err != nil {
						t.Fatal(err)
					}
					offered++
				}
				if i%3 == 0 {
					if _, err := e.DequeuePacket(uint32(i * 13 % flows)); err != nil &&
						!errors.Is(err, queue.ErrQueueEmpty) {
						t.Fatal(err)
					}
				}
				if i%11 == 0 {
					if _, err := e.DeletePacket(uint32(i * 5 % flows)); err != nil &&
						!errors.Is(err, queue.ErrQueueEmpty) {
						t.Fatal(err)
					}
				}
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if got := st.EnqueuedPackets + st.DroppedPackets + st.Rejected; got != offered {
				t.Fatalf("arrivals: offered %d != enq %d + dropped %d + rejected %d",
					offered, st.EnqueuedPackets, st.DroppedPackets, st.Rejected)
			}
			if st.Rejected == 0 || st.EnqueuedPackets == 0 ||
				(cfg.Kind != policy.KindNone && st.DroppedPackets == 0) ||
				(cfg.Kind == policy.KindLQD && st.PushedOutPackets == 0) {
				t.Fatalf("the script missed a fate: %+v", st)
			}
			if st.EnqueuedSegments != st.DequeuedSegments+st.PushedOutSegments+uint64(st.QueuedSegments) {
				t.Fatalf("conservation: enq %d != deq %d + pushed %d + resident %d",
					st.EnqueuedSegments, st.DequeuedSegments, st.PushedOutSegments, st.QueuedSegments)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEgressPriority: strict priority serves the lowest flow ID first.
func TestEgressPriority(t *testing.T) {
	s := script{}
	for _, f := range []int{5, 2, 7, 2, 0, 5} {
		s = s.do(cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 64,
		Egress: policy.EgressConfig{Kind: policy.EgressPrio}}, false, s.rep(7, cNext, 0))
}

// TestEgressRoundRobin: four backlogged flows are served in turn.
func TestEgressRoundRobin(t *testing.T) {
	s := script{}
	for f := range 4 {
		s = s.rep(3, cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 64,
		Egress: policy.EgressConfig{Kind: policy.EgressRR}}, false, s.do(cNextBatch, 8<<1))
}

// TestEgressWRRRatios: weight 3 against weight 1 takes three packets a
// round to the other's one.
func TestEgressWRRRatios(t *testing.T) {
	s := script{}.do(cWeight, 1, 2) // weight 3
	for f := 1; f <= 2; f++ {
		s = s.rep(60, cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 256,
		Egress: policy.EgressConfig{Kind: policy.EgressWRR, DefaultWeight: 1}}, false, s.rep(40, cNext, 0))
}

// TestEgressDRRByteFairness: 4-segment packets on flow 1 against 1-segment
// ones on flow 2 share the port by bytes, not packets.
func TestEgressDRRByteFairness(t *testing.T) {
	s := script{}.rep(30, cEnqueue, 1, segsArg(4)).rep(120, cEnqueue, 2, segsArg(1))
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 512}}, false, s.rep(60, cNext, 0))
}

// TestEgressWorkConservingAcrossShards: under every discipline the pull
// batches drain every shard; a batch comes back empty only when the engine
// is.
func TestEgressWorkConservingAcrossShards(t *testing.T) {
	for _, kind := range []policy.EgressKind{policy.EgressRR, policy.EgressPrio, policy.EgressWRR, policy.EgressDRR} {
		s := script{}
		for f := 0; f < 255; f += 3 {
			s = s.do(cEnqueue, f, segsArg(1))
		}
		runEngine(t, Config{Shards: 8, NumFlows: 255, NumSegments: 1024,
			Egress: policy.EgressConfig{Kind: kind}}, false, s.rep(12, cNextBatch, 8<<1))
	}
}

// TestConcurrentPolicyReconfiguration hammers the engine with producers and
// consumers while another goroutine flips admission policies, egress
// disciplines, and per-flow weights. Run under -race (CI does), this is the
// reconfiguration-safety check; afterwards the invariants must still hold.
func TestConcurrentPolicyReconfiguration(t *testing.T) {
	e, err := New(Config{
		Shards: 4, NumFlows: 256, NumSegments: 2048,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	const producers = 3
	const perProducer = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			data := seg(2)
			for i := 0; i < perProducer; i++ {
				f := uint32(p*101+i*17) % 256
				_, err := e.EnqueuePacket(f, data)
				if err != nil && !errors.Is(err, ErrAdmissionDrop) &&
					!errors.Is(err, queue.ErrNoFreeSegments) {
					t.Errorf("producer: %v", err)
					return
				}
			}
		}(p)
	}

	var consWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				batch := e.DequeueNextBatch(16)
				for _, p := range batch {
					e.ReleaseBuffer(p.Data)
				}
				if len(batch) == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		admissions := []policy.Config{
			{Kind: policy.KindTailDrop, Limit: 8},
			{Kind: policy.KindRED, MinTh: 0.2, MaxTh: 0.7, MaxP: 0.4, Weight: 0.05, Seed: 5},
			{Kind: policy.KindLQD},
			{},
		}
		egresses := []policy.EgressConfig{
			{Kind: policy.EgressRR},
			{Kind: policy.EgressWRR, DefaultWeight: 2},
			{Kind: policy.EgressDRR, QuantumBytes: 256},
			{Kind: policy.EgressPrio},
		}
		for i := 0; i < 400; i++ {
			if err := e.SetAdmission(admissions[i%len(admissions)]); err != nil {
				t.Errorf("SetAdmission: %v", err)
				return
			}
			if err := e.SetEgress(egresses[i%len(egresses)]); err != nil {
				t.Errorf("SetEgress: %v", err)
				return
			}
			if err := e.SetWeight(uint32(i%256), 1+i%7); err != nil {
				t.Errorf("SetWeight: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	consWG.Wait()

	// Drain and verify conservation end-to-end.
	for {
		batch := e.DequeueNextBatch(64)
		if len(batch) == 0 {
			break
		}
		for _, p := range batch {
			e.ReleaseBuffer(p.Data)
		}
	}
	st := e.Stats()
	if st.QueuedSegments != 0 {
		t.Fatalf("%d segments still resident after drain", st.QueuedSegments)
	}
	if st.EnqueuedSegments != st.DequeuedSegments+st.PushedOutSegments {
		t.Fatalf("conservation after drain: enq %d != deq %d + pushed %d",
			st.EnqueuedSegments, st.DequeuedSegments, st.PushedOutSegments)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLQDDoesNotEvictForCappedArrival: with LQD and a per-flow cap, an
// arrival the cap refuses anyway must not push out another flow's packet
// first.
func TestLQDDoesNotEvictForCappedArrival(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 8,
		Admission: policy.Config{Kind: policy.KindLQD}}, false,
		script{}.do(cLimit, 1, 2).rep(2, cEnqueue, 1, segsArg(1)).rep(3, cEnqueue, 2, segsArg(2)).
			do(cEnqueue, 1, segsArg(1)).do(cRead, 2))
	if c := h.m.c; c.Rejected != 1 || c.PushedOutPackets != 0 {
		t.Fatalf("%d rejected, %d pushed out; want 1, 0", c.Rejected, c.PushedOutPackets)
	}
}

// TestMovePacketHonorsAdmission: a same-shard move into a queue at the
// tail-drop cap is refused, the packet stays on its source, and nothing is
// counted as dropped.
func TestMovePacketHonorsAdmission(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindTailDrop, Limit: 4}}, false,
		script{}.rep(4, cEnqueue, 2, segsArg(1)).do(cEnqueue, 1, segsArg(2)).do(cMove, 1, 2).do(cRead, 1))
	if c := h.m.c; c.DroppedPackets != 0 {
		t.Fatalf("the refused move was counted as %d drops: the packet was not lost", c.DroppedPackets)
	}
}

// TestCrossShardMoveIntoFullPool: a cross-shard move allocates nothing —
// the packet's segments are resident in the shared pool — so it succeeds
// with the pool full and evicts nothing. Flows 0 and 1 live on different
// shards of two.
func TestCrossShardMoveIntoFullPool(t *testing.T) {
	h := runEngine(t, Config{Shards: 2, NumFlows: 64, NumSegments: 16,
		Admission: policy.Config{Kind: policy.KindLQD}}, false,
		script{}.do(cEnqueue, 0, segsArg(2)).rep(7, cEnqueue, 1, segsArg(2)).do(cMove, 0, 1).do(cRead, 1))
	if c := h.m.c; c.PushedOutPackets != 0 {
		t.Fatalf("the move evicted %d packets", c.PushedOutPackets)
	}
}

// TestLQDEvictsAcrossShards: global LQD. The hog fills the shared pool from
// its shard (flow 0, shard 0 of four); an arrival on another shard (flow
// 1) pushes the hog out instead of being refused.
func TestLQDEvictsAcrossShards(t *testing.T) {
	h := runEngine(t, Config{Shards: 4, NumFlows: 255, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindLQD}}, false,
		script{}.rep(16, cEnqueue, 0, segsArg(4)).do(cEnqueue, 1, segsArg(2)).do(cRead, 0).do(cRead, 1))
	if c := h.m.c; c.PushedOutPackets != 1 || c.DroppedPackets != 0 {
		t.Fatalf("%d pushed out, %d dropped; want 1, 0", c.PushedOutPackets, c.DroppedPackets)
	}
}

// TestDRRDeficitForfeitedOnDirectDrain: flow 1 banks deficit across visits
// behind a large packet, then drains through DequeuePacket; refilled, it
// must not burst ahead on the stale credit.
func TestDRRDeficitForfeitedOnDirectDrain(t *testing.T) {
	s := script{}.do(cEnqueue, 1, segsArg(8)).rep(4, cEnqueue, 2, segsArg(1)).rep(4, cNext, 0).do(cDequeue, 1, 0)
	for range 8 {
		s = s.do(cEnqueue, 1, segsArg(1)).do(cEnqueue, 2, segsArg(1))
	}
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 256,
		Egress: policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 64}}, false, s.rep(8, cNext, 0))
}

// TestSetWeightValidation: the weight setters refuse a weight they cannot
// keep — not positive, or past MaxWeight, where 32 bits would truncate it
// to 0, the default — and a flow, tier or unit that does not exist, and
// keep every weight in range.
func TestSetWeightValidation(t *testing.T) {
	// cWeigh's weights: 0, -2, 1, 3, MaxWeight, MaxWeight+1, MinInt, MaxInt.
	s := script{}.do(cWeigh, 0, 1, 0).do(cWeigh, 0, 1, 1).do(cWeigh, 0, 64, 3).do(cWeigh, 0, 3, 3)
	for _, w := range []int{5, 6, 7} {
		s = s.do(cWeigh, 0, 3, w).do(cWeigh, 1, 1, w).do(cWeigh, 2, 1, w)
	}
	s = s.do(cWeigh, 1, 1, 4).do(cWeigh, 2, 1, 4).do(cWeigh, 2, 2, 2).do(cWeigh, 3, 0, 2).do(cRead, 3)
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 64, Egress: policy.EgressConfig{
		Kind: policy.EgressWRR,
		Levels: []policy.LevelSpec{
			{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 2},
			{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2},
		},
	}}, false, s)
	if ts := h.e.TierStats(policy.NumTiers); ts != nil {
		t.Errorf("TierStats of a tier that does not exist = %v, want none", ts)
	}
}

// TestBatchEnqueueWithAdmission: a batch of six one-segment packets on a
// flow capped at two links two and drops four.
func TestBatchEnqueueWithAdmission(t *testing.T) {
	s := script{}.do(cBatch, 5)
	for range 6 {
		s = append(s, 1, byte(segsArg(1)))
	}
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 16,
		Admission: policy.Config{Kind: policy.KindTailDrop, Limit: 2}}, false, s)
	if c := h.m.c; c.DroppedPackets != 4 {
		t.Fatalf("%d dropped, want 4", c.DroppedPackets)
	}
}
