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

func TestTailDropAdmission(t *testing.T) {
	e := newPolicyEngine(t, 64, policy.Config{Kind: policy.KindTailDrop, Limit: 4}, policy.EgressConfig{})
	// Fill flow 1 to its cap.
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(1, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.EnqueuePacket(1, seg(1))
	if !errors.Is(err, ErrAdmissionDrop) {
		t.Fatalf("over-cap enqueue error = %v, want ErrAdmissionDrop", err)
	}
	// A different flow still gets in.
	if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DroppedPackets != 1 || st.DroppedSegments != 1 {
		t.Fatalf("drops = (%d, %d), want (1, 1)", st.DroppedPackets, st.DroppedSegments)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLQDPushOut(t *testing.T) {
	e := newPolicyEngine(t, 16, policy.Config{Kind: policy.KindLQD}, policy.EgressConfig{})
	// Flow 1 hoards 12 segments in 3-segment packets; flow 2 takes 4.
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(1, seg(3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	if free := e.FreeSegments(); free != 0 {
		t.Fatalf("pool should be full, %d free", free)
	}
	// A new arrival on flow 3 pushes out flow 1's head packet.
	if _, err := e.EnqueuePacket(3, seg(2)); err != nil {
		t.Fatalf("LQD should have admitted via push-out, got %v", err)
	}
	st := e.Stats()
	if st.PushedOutPackets != 1 || st.PushedOutSegments != 3 {
		t.Fatalf("push-out = (%d, %d) packets/segments, want (1, 3)", st.PushedOutPackets, st.PushedOutSegments)
	}
	if n, _ := e.Len(1); n != 9 {
		t.Fatalf("victim flow holds %d segments, want 9", n)
	}
	if n, _ := e.Len(3); n != 2 {
		t.Fatalf("arriving flow holds %d segments, want 2", n)
	}
	if st.DroppedPackets != 0 {
		t.Fatalf("LQD admitted arrival counted as dropped (%d)", st.DroppedPackets)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLQDOversizedArrivalDropped(t *testing.T) {
	e := newPolicyEngine(t, 8, policy.Config{Kind: policy.KindLQD}, policy.EgressConfig{})
	if _, err := e.EnqueuePacket(1, seg(4)); err != nil {
		t.Fatal(err)
	}
	// 100 segments can never fit an 8-segment pool: dropped, nothing evicted.
	_, err := e.EnqueuePacket(2, seg(100))
	if !errors.Is(err, ErrAdmissionDrop) {
		t.Fatalf("oversized arrival error = %v, want ErrAdmissionDrop", err)
	}
	if n, _ := e.Len(1); n != 4 {
		t.Fatalf("resident flow disturbed: %d segments", n)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestREDEngineDropsUnderPressure(t *testing.T) {
	e := newPolicyEngine(t, 128,
		policy.Config{Kind: policy.KindRED, MinTh: 0.1, MaxTh: 0.5, MaxP: 0.8, Weight: 0.5, Seed: 3},
		policy.EgressConfig{})
	// Push occupancy toward ~75%; with Weight 0.5 the average tracks fast,
	// so RED may already shed arrivals while filling.
	drops := 0
	for i, accepted := 0, 0; accepted < 96 && i < 2000; i++ {
		_, err := e.EnqueuePacket(uint32(i%8), seg(1))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrAdmissionDrop):
			drops++
		default:
			t.Fatalf("warmup enqueue %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		_, err := e.EnqueuePacket(uint32(i%8), seg(1))
		switch {
		case err == nil:
			if _, err := e.DequeuePacket(uint32(i % 8)); err != nil {
				t.Fatal(err)
			}
		case errors.Is(err, ErrAdmissionDrop):
			drops++
		default:
			t.Fatal(err)
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped at 75% occupancy above MaxTh")
	}
	st := e.Stats()
	if st.DroppedPackets != uint64(drops) {
		t.Fatalf("stats say %d drops, observed %d", st.DroppedPackets, drops)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConservationLawAcrossPolicies holds both sides of the books under
// every admission policy on a pool small enough to refuse. The departure
// side: every enqueued segment was dequeued, pushed out or is resident. The
// arrival side: every packet offered — through EnqueuePacket, EnqueueBatch,
// ReservePacket+Commit/Abort, and EnqueueAsync before and after Start — met
// exactly one fate, offered = enqueued + dropped + rejected + caller errors
// (+ aborted reservations), and each returned error names the counter that
// moved.
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
			// want is what the returned errors say the counters read;
			// callerErrs and aborted are the fates no counter records.
			var want struct{ enq, drop, rej uint64 }
			var offered, callerErrs, aborted uint64
			tally := func(err error) {
				offered++
				switch {
				case err == nil:
					want.enq++
				case errors.Is(err, ErrAdmissionDrop):
					want.drop++
				case errors.Is(err, queue.ErrNoFreeSegments), errors.Is(err, queue.ErrQueueLimit):
					want.rej++
				case errors.Is(err, queue.ErrBadQueue), errors.Is(err, queue.ErrBadLength):
					callerErrs++
				default:
					t.Fatalf("unexpected arrival error: %v", err)
				}
			}
			// settle compares the counters with the tallies. posted is how
			// many EnqueueAsync calls went out since the last settle: nobody
			// was told their fate, so they are held to the sum only and the
			// tallies then adopt what the counters say.
			settle := func(what string, posted uint64) {
				t.Helper()
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				st := e.Stats()
				offered += posted
				if got, sum := st.EnqueuedPackets+st.DroppedPackets+st.Rejected, want.enq+want.drop+want.rej+posted; got != sum {
					t.Fatalf("%s: %d fates counted for %d arrivals", what, got, sum)
				}
				if posted == 0 && (st.EnqueuedPackets != want.enq || st.DroppedPackets != want.drop || st.Rejected != want.rej) {
					t.Fatalf("%s: counters enq %d drop %d rej %d, returned errors say %d %d %d",
						what, st.EnqueuedPackets, st.DroppedPackets, st.Rejected, want.enq, want.drop, want.rej)
				}
				want.enq, want.drop, want.rej = st.EnqueuedPackets, st.DroppedPackets, st.Rejected
			}
			// Overdrive the pool, interleaving dequeues and deletes.
			for i := 0; i < 3000; i++ {
				if i == 1500 {
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
				}
				f := uint32(i*7) % flows
				data := seg(1 + i%3)
				switch i % 8 {
				default:
					_, err := e.EnqueuePacket(f, data)
					tally(err)
					settle("EnqueuePacket", 0)
				case 1:
					// A burst with one of each way to go wrong in it: the
					// capped flow, a packet the pool can never hold, an
					// empty one, a flow outside the flow space.
					batch := []EnqueueReq{
						{f, data}, {capped, seg(2)}, {f + 1, seg(pool + 1)},
						{f, nil}, {flows, data}, {(f + 64) % flows, data},
					}
					_, errs := e.EnqueueBatch(batch)
					for j := range batch {
						var err error
						if errs != nil {
							err = errs[j]
						}
						tally(err)
					}
					settle("EnqueueBatch", 0)
				case 2, 5:
					// Before Start these run on the spot, after it they are
					// posted; three in a row, two of them to one shard.
					for _, pf := range []uint32{f, f, (f + 1) % flows} {
						if err := e.EnqueueAsync(pf, data); err != nil {
							t.Fatal(err)
						}
					}
					settle("EnqueueAsync", 3)
				case 3:
					r, err := e.ReservePacket(f, len(data))
					if err != nil {
						tally(err)
						settle("ReservePacket", 0)
						break
					}
					settle("ReservePacket (open)", 0) // charged to admission, not yet to the books
					if i%16 == 3 {
						tally(r.Commit())
					} else if err := r.Abort(); err != nil {
						t.Fatal(err)
					} else {
						offered++
						aborted++
					}
					settle("Commit/Abort", 0)
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
			st := e.Stats()
			if got := st.EnqueuedPackets + st.DroppedPackets + st.Rejected + callerErrs + aborted; got != offered {
				t.Fatalf("arrivals: offered %d != enq %d + dropped %d + rejected %d + caller errors %d + aborted %d",
					offered, st.EnqueuedPackets, st.DroppedPackets, st.Rejected, callerErrs, aborted)
			}
			if st.Rejected == 0 || callerErrs == 0 || aborted == 0 || st.EnqueuedPackets == 0 ||
				(cfg.Kind != policy.KindNone && st.DroppedPackets == 0) ||
				(cfg.Kind == policy.KindLQD && st.PushedOutPackets == 0) {
				t.Fatalf("the script missed a fate: %+v, caller errors %d, aborted %d", st, callerErrs, aborted)
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

func TestEgressPriority(t *testing.T) {
	e := newPolicyEngine(t, 64, policy.Config{}, policy.EgressConfig{Kind: policy.EgressPrio})
	for _, f := range []uint32{5, 2, 7, 2, 0, 5} {
		if _, err := e.EnqueuePacket(f, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint32
	for {
		p, ok := e.DequeueNext()
		if !ok {
			break
		}
		got = append(got, p.Flow)
		e.ReleaseBuffer(p.Data)
	}
	want := []uint32{0, 2, 2, 5, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("served %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order %v, want %v", got, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEgressRoundRobin(t *testing.T) {
	e := newPolicyEngine(t, 64, policy.Config{}, policy.EgressConfig{Kind: policy.EgressRR})
	for f := uint32(0); f < 4; f++ {
		for i := 0; i < 3; i++ {
			if _, err := e.EnqueuePacket(f, seg(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Twelve packets over four flows: every window of four consecutive
	// picks must serve four distinct flows while all stay backlogged.
	batch := e.DequeueNextBatch(8)
	if len(batch) != 8 {
		t.Fatalf("got %d packets, want 8", len(batch))
	}
	for w := 0; w+4 <= 8; w += 4 {
		seen := map[uint32]bool{}
		for _, p := range batch[w : w+4] {
			seen[p.Flow] = true
		}
		if len(seen) != 4 {
			t.Fatalf("window %d served flows %v, want all 4 distinct", w, batch[w:w+4])
		}
	}
	for _, p := range batch {
		e.ReleaseBuffer(p.Data)
	}
}

func TestEgressWRRRatios(t *testing.T) {
	e := newPolicyEngine(t, 4096, policy.Config{},
		policy.EgressConfig{Kind: policy.EgressWRR, DefaultWeight: 1})
	if err := e.SetWeight(1, 3); err != nil {
		t.Fatal(err)
	}
	for f := uint32(1); f <= 2; f++ {
		for i := 0; i < 400; i++ {
			if _, err := e.EnqueuePacket(f, seg(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := map[uint32]int{}
	for i := 0; i < 200; i++ {
		p, ok := e.DequeueNext()
		if !ok {
			t.Fatal("scheduler went idle with backlog")
		}
		counts[p.Flow]++
		e.ReleaseBuffer(p.Data)
	}
	// Weight 3:1 over 200 picks → 150/50.
	if counts[1] != 150 || counts[2] != 50 {
		t.Fatalf("WRR split %v, want flow1=150 flow2=50", counts)
	}
}

func TestEgressDRRByteFairness(t *testing.T) {
	e := newPolicyEngine(t, 8192, policy.Config{},
		policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 512})
	// Flow 1 sends 4-segment (256 B) packets, flow 2 sends 1-segment (64 B):
	// byte-fair service means ~4x as many flow-2 packets.
	for i := 0; i < 300; i++ {
		if _, err := e.EnqueuePacket(1, seg(4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1200; i++ {
		if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	bytes := map[uint32]int{}
	for i := 0; i < 500; i++ {
		p, ok := e.DequeueNext()
		if !ok {
			t.Fatal("scheduler went idle with backlog")
		}
		bytes[p.Flow] += len(p.Data)
		e.ReleaseBuffer(p.Data)
	}
	ratio := float64(bytes[1]) / float64(bytes[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("DRR byte split %v (ratio %.2f), want ~1.0", bytes, ratio)
	}
}

func TestEgressWorkConservingAcrossShards(t *testing.T) {
	for _, kind := range []policy.EgressKind{policy.EgressRR, policy.EgressPrio, policy.EgressWRR, policy.EgressDRR} {
		e, err := New(Config{
			Shards: 8, NumFlows: 512, NumSegments: 4096,
			Egress: policy.EgressConfig{Kind: kind},
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for f := uint32(0); f < 512; f += 3 {
			if _, err := e.EnqueuePacket(f, seg(1)); err != nil {
				t.Fatal(err)
			}
			total++
		}
		served := 0
		for {
			batch := e.DequeueNextBatch(17)
			if len(batch) == 0 {
				break
			}
			for _, p := range batch {
				served++
				e.ReleaseBuffer(p.Data)
			}
		}
		if served != total {
			t.Fatalf("%v: served %d of %d packets", kind, served, total)
		}
		if st := e.Stats(); st.ActiveFlows != 0 {
			t.Fatalf("%v: %d flows still active after drain", kind, st.ActiveFlows)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
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

func TestLQDDoesNotEvictForCappedArrival(t *testing.T) {
	// LQD plus a per-flow cap: an arrival the cap will refuse anyway must
	// not push out another flow's packet first.
	e, err := New(Config{
		Shards: 1, NumFlows: 64, NumSegments: 8,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFlowLimit(1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.EnqueuePacket(1, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e.EnqueuePacket(2, seg(2)); err != nil {
			t.Fatal(err)
		}
	}
	if free := e.FreeSegments(); free != 0 {
		t.Fatalf("pool should be full, %d free", free)
	}
	// Flow 1 is at its cap: the arrival must be refused by the limit
	// without evicting anything from flow 2.
	if _, err := e.EnqueuePacket(1, seg(1)); !errors.Is(err, queue.ErrQueueLimit) {
		t.Fatalf("capped arrival err = %v, want ErrQueueLimit", err)
	}
	st := e.Stats()
	if st.PushedOutPackets != 0 {
		t.Fatalf("%d packets evicted for an arrival the cap refused", st.PushedOutPackets)
	}
	if n, _ := e.Len(2); n != 6 {
		t.Fatalf("innocent flow disturbed: %d segments, want 6", n)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMovePacketHonorsAdmission(t *testing.T) {
	// Same-shard move: the tail-drop per-queue cap applies to the
	// destination even though pool occupancy is unchanged.
	e := newPolicyEngine(t, 64, policy.Config{Kind: policy.KindTailDrop, Limit: 4}, policy.EgressConfig{})
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.EnqueuePacket(1, seg(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MovePacket(1, 2); !errors.Is(err, ErrAdmissionDrop) {
		t.Fatalf("move into capped queue err = %v, want ErrAdmissionDrop", err)
	}
	if n, _ := e.Len(1); n != 2 {
		t.Fatalf("refused move disturbed the source: %d segments", n)
	}
	st := e.Stats()
	if st.DroppedPackets != 0 {
		t.Fatalf("refused move counted as a drop (%d): the packet was not lost", st.DroppedPackets)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossShardMoveIntoFullPool(t *testing.T) {
	// A cross-shard move allocates nothing — the packet's segments are
	// already resident in the shared pool — so it must succeed even when
	// the pool is completely full, and must not evict anything.
	e, err := New(Config{
		Shards: 2, NumFlows: 64, NumSegments: 16,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find two flows on different shards.
	src, dst := uint32(0), uint32(0)
	for f := uint32(1); f < 64; f++ {
		if e.ShardOf(f) != e.ShardOf(0) {
			src, dst = 0, f
			break
		}
	}
	if _, err := e.EnqueuePacket(src, seg(2)); err != nil {
		t.Fatal(err)
	}
	// Fill the rest of the pool via dst.
	for e.FreeSegments() > 0 {
		if _, err := e.EnqueuePacket(dst, seg(2)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.MovePacket(src, dst)
	if err != nil || n != 2 {
		t.Fatalf("cross-shard move with full pool = (%d, %v), want (2, nil)", n, err)
	}
	st := e.Stats()
	if st.PushedOutPackets != 0 {
		t.Fatalf("move evicted %d packets; it allocates nothing and must not push out", st.PushedOutPackets)
	}
	if l, _ := e.Len(dst); l != 16 {
		t.Fatalf("destination holds %d segments, want 16", l)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLQDEvictsAcrossShards(t *testing.T) {
	// Global LQD: the hog and the arrival live on different shards; the
	// arrival's shard must evict the globally longest queue on the other
	// shard — impossible under the old per-shard pool split, where the
	// arrival's shard could only see (and evict from) its own fragment.
	e, err := New(Config{
		Shards: 4, NumFlows: 256, NumSegments: 64,
		Admission: policy.Config{Kind: policy.KindLQD},
	})
	if err != nil {
		t.Fatal(err)
	}
	hog := uint32(0)
	victim := uint32(0)
	for f := uint32(1); f < 256; f++ {
		if e.ShardOf(f) != e.ShardOf(hog) {
			victim = f
			break
		}
	}
	// The hog fills the whole shared pool from its shard.
	for i := 0; i < 16; i++ {
		if _, err := e.EnqueuePacket(hog, seg(4)); err != nil {
			t.Fatalf("hog enqueue %d: %v", i, err)
		}
	}
	if free := e.FreeSegments(); free != 0 {
		t.Fatalf("pool should be full, %d free", free)
	}
	// An arrival on another shard pushes the hog out.
	if _, err := e.EnqueuePacket(victim, seg(2)); err != nil {
		t.Fatalf("LQD should have admitted via cross-shard push-out, got %v", err)
	}
	st := e.Stats()
	if st.PushedOutPackets == 0 {
		t.Fatal("no push-out recorded")
	}
	if n, _ := e.Len(hog); n != 60 {
		t.Fatalf("hog holds %d segments, want 60 (one 4-segment packet evicted)", n)
	}
	if n, _ := e.Len(victim); n != 2 {
		t.Fatalf("arrival holds %d segments, want 2", n)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDRRDeficitForfeitedOnDirectDrain(t *testing.T) {
	e := newPolicyEngine(t, 4096, policy.Config{},
		policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 64})
	// Flow 1 holds one large packet the 64-byte quantum cannot cover in
	// one visit; flow 2 keeps the scheduler rotating so flow 1 banks
	// deficit across visits.
	if _, err := e.EnqueuePacket(1, seg(8)); err != nil { // 512 bytes
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		p, ok := e.DequeueNext()
		if !ok {
			t.Fatal("idle with backlog")
		}
		if p.Flow != 2 {
			t.Fatalf("flow 1 served with insufficient deficit (pick %d)", i)
		}
		e.ReleaseBuffer(p.Data)
	}
	// Drain flow 1 through the direct path: its banked deficit must go.
	if data, err := e.DequeuePacket(1); err != nil {
		t.Fatal(err)
	} else {
		e.ReleaseBuffer(data)
	}
	// Refill both flows with equal small packets: flow 1 must not burst
	// ahead on stale credit — successive picks alternate.
	for i := 0; i < 8; i++ {
		if _, err := e.EnqueuePacket(1, seg(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueuePacket(2, seg(1)); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[uint32]int{}
	for i := 0; i < 8; i++ {
		p, ok := e.DequeueNext()
		if !ok {
			t.Fatal("idle with backlog")
		}
		counts[p.Flow]++
		e.ReleaseBuffer(p.Data)
	}
	if counts[1] != 4 || counts[2] != 4 {
		t.Fatalf("post-drain DRR split %v, want 4/4 (stale deficit detected)", counts)
	}
}

func TestSetWeightValidation(t *testing.T) {
	e := newPolicyEngine(t, 64, policy.Config{}, policy.EgressConfig{Kind: policy.EgressWRR})
	if err := e.SetWeight(1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := e.SetWeight(1, -2); err == nil {
		t.Error("negative weight accepted")
	}
	if err := e.SetWeight(1<<20, 3); err == nil {
		t.Error("out-of-range flow accepted")
	}
	if err := e.SetWeight(3, 4); err != nil {
		t.Errorf("valid weight rejected: %v", err)
	}
	// Weights live in 32 bits: 1<<32 used to truncate to 0, the default
	// weight, and 1<<33 likewise. Every setter refuses what it cannot keep.
	h := newPolicyEngine(t, 64, policy.Config{}, policy.EgressConfig{
		Kind: policy.EgressWRR,
		Levels: []policy.LevelSpec{
			{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 2},
			{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2},
		},
	})
	for _, shift := range []uint{31, 32, 33} {
		big := int(int64(1) << shift) // not a constant: int may be 32 bits
		if err := h.SetWeight(3, big); err == nil {
			t.Errorf("SetWeight(%d) accepted", big)
		}
		if err := h.SetTierWeight(policy.TierClass, 1, big); err == nil {
			t.Errorf("SetTierWeight(class, %d) accepted", big)
		}
		if err := h.SetTierWeight(policy.TierTenant, 1, big); err == nil {
			t.Errorf("SetTierWeight(tenant, %d) accepted", big)
		}
		eg := policy.EgressConfig{Levels: []policy.LevelSpec{{Tier: policy.TierClass, Weights: []int{1, big}}}}
		if err := eg.Validate(); err == nil {
			t.Errorf("LevelSpec weight %d accepted", big)
		}
	}
	if fi, _ := h.Flow(3); fi.Weight != 1 {
		t.Errorf("refused weights changed flow 3's weight to %d", fi.Weight)
	}
	for tier := range policy.NumTiers {
		if err := h.SetTierWeight(tier, 1, policy.MaxWeight); err != nil {
			t.Errorf("weight MaxWeight rejected: %v", err)
		}
	}
	if err := h.SetTierWeight(policy.NumTiers, 0, 1); err == nil {
		t.Error("SetTierWeight accepted a tier that does not exist")
	}
	if ts := h.TierStats(policy.NumTiers); ts != nil {
		t.Errorf("TierStats of a tier that does not exist = %v, want none", ts)
	}
	if cs, ts := h.TierStats(policy.TierClass), h.TierStats(policy.TierTenant); cs[1].Weight != policy.MaxWeight || ts[1].Weight != policy.MaxWeight {
		t.Errorf("class/tenant 1 weights %d/%d, want MaxWeight", cs[1].Weight, ts[1].Weight)
	}
}

func TestBatchEnqueueWithAdmission(t *testing.T) {
	e := newPolicyEngine(t, 16, policy.Config{Kind: policy.KindTailDrop, Limit: 2}, policy.EgressConfig{})
	batch := make([]EnqueueReq, 6)
	for i := range batch {
		batch[i] = EnqueueReq{Flow: 1, Data: seg(1)}
	}
	n, errs := e.EnqueueBatch(batch)
	if n != 2 {
		t.Fatalf("batch linked %d segments, want 2 (cap)", n)
	}
	drops := 0
	for _, err := range errs {
		if errors.Is(err, ErrAdmissionDrop) {
			drops++
		}
	}
	if drops != 4 {
		t.Fatalf("%d batch entries dropped, want 4", drops)
	}
	st := e.Stats()
	if st.DroppedPackets != 4 {
		t.Fatalf("stats drops = %d, want 4", st.DroppedPackets)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
