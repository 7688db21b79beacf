package engine

// Behavior of the composable egress hierarchy (tenant → class → flow)
// and the per-shard timing-wheel pacer: intermediate-level discipline
// semantics, flow re-homing across tenants, classes and ports under the
// ring datapath, and the one-goroutine-per-shard scaling claim for
// served ports.

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// TestClassPrioServesLowestClassFirst: with strict priority at the class
// level, a full drain serves every packet of class c before any packet of
// class c+1, regardless of flow IDs: flow f lands in class 7 - f%8, so
// high flow IDs get high priority.
func TestClassPrioServesLowestClassFirst(t *testing.T) {
	s := script{}
	for f := range 64 {
		s = s.do(cRehome, f, 2|(7-f%8)<<2)
	}
	for range 4 {
		for f := range 64 {
			s = s.do(cEnqueue, f, bytesArg(100))
		}
	}
	runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressRR, Levels: []policy.LevelSpec{
			{Tier: policy.TierClass, Kind: policy.EgressPrio, Units: 8},
		}}}, false, s.rep(257, cNext, 0))
}

// TestClassWRRVisitPattern: class-level WRR gives each backlogged class
// weight packets per visit, so with weights 3:1 and deep backlog the serve
// sequence cycles AAAB exactly. Flows 0 and 1 are in class 0, 2 and 3 in
// class 1.
func TestClassWRRVisitPattern(t *testing.T) {
	s := script{}.do(cRehome, 2, 2|1<<2).do(cRehome, 3, 2|1<<2)
	for range 8 {
		for f := range 4 {
			s = s.do(cEnqueue, f, segsArg(1))
		}
	}
	runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 256,
		Egress: policy.EgressConfig{Kind: policy.EgressRR, Levels: []policy.LevelSpec{
			{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2, Weights: []int{3, 1}},
		}}}, false, s.rep(16, cNext, 0))
}

// TestTierWeightTakesEffectMidTraffic: a class weight changed while both
// classes are backlogged governs the very next rotation. The level stack
// keeps its own copy of node weights, so SetTierWeight must refresh it;
// TierStats reads the engine's weight slice and cannot tell. Flows 0 and 1
// are in class 0, 2 and 3 in class 1.
func TestTierWeightTakesEffectMidTraffic(t *testing.T) {
	s := script{}.do(cRehome, 2, 2|1<<2).do(cRehome, 3, 2|1<<2)
	for range 16 {
		for f := range 4 {
			s = s.do(cEnqueue, f, segsArg(1))
		}
	}
	runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 256,
		Egress: policy.EgressConfig{Kind: policy.EgressRR, Levels: []policy.LevelSpec{
			{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2},
		}}}, false, s.rep(8, cNext, 0).do(cWeight, 0, 128|2|1<<2).rep(16, cNext, 0)) // class 0 to weight 3
}

// TestClassStatsReflectBacklog: TierStats(class) counts backlogged flows per
// class across shards and reports configured weights.
func TestClassStatsReflectBacklog(t *testing.T) {
	s := script{}
	for f := range 12 {
		s = s.do(cRehome, f, 2|f%4<<2).do(cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 256,
		Egress: policy.EgressConfig{Levels: []policy.LevelSpec{
			{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 4, Weights: []int{1, 2, 3, 4}},
		}}}, false, s.do(cWeight, 0, 128|3|1<<2|2<<3)) // class 2 to weight 4
}

// TestClassRehomingChurnRing re-homes backlogged flows across classes and
// ports while producers enqueue and a consumer drains — on the ring
// datapath, under -race. Per-flow FIFO must survive every move (the
// flow's shard never changes, so sequence numbers must arrive strictly
// ordered), open WRR/DRR visits at both levels must end cleanly (any
// leak trips CheckInvariants or wedges the rotation), and every packet
// enqueued must be served exactly once.
func TestClassRehomingChurnRing(t *testing.T) {
	const (
		flows     = 256
		producers = 4
		perFlow   = 120
	)
	e, err := New(Config{
		Shards: 4, NumFlows: flows, NumSegments: 1 << 13,
		NumPorts: 4,
		Egress: policy.EgressConfig{
			Kind:         policy.EgressDRR,
			QuantumBytes: 256,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 4, Weights: []int{4, 3, 2, 1}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup // producers only
		churnWG  sync.WaitGroup
		enqueued atomic.Int64
		stop     = make(chan struct{})
	)
	// Producers own disjoint flow stripes so each flow's enqueue order is
	// well-defined; payloads carry (flow, seq) for the FIFO check.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			seq := make([]uint32, flows)
			for n := 0; n < perFlow*flows/producers; n++ {
				f := uint32(rng.Intn(flows/producers)*producers + p)
				buf := make([]byte, 8+rng.Intn(3*queue.SegmentBytes))
				binary.LittleEndian.PutUint32(buf, f)
				binary.LittleEndian.PutUint32(buf[4:], seq[f])
				if _, err := e.EnqueuePacket(f, buf); err == nil {
					seq[f]++
					enqueued.Add(1)
				}
			}
		}(p)
	}
	// Churn: class and port re-homing, weight changes — the moves land
	// mid-backlog and mid-visit by construction.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := uint32(rng.Intn(flows))
			switch rng.Intn(4) {
			case 0:
				_ = e.SetFlowClass(f, rng.Intn(4))
			case 1:
				_ = e.SetFlowPort(f, rng.Intn(4))
			case 2:
				_ = e.SetTierWeight(policy.TierClass, rng.Intn(4), 1+rng.Intn(4))
			default:
				_ = e.SetWeight(f, 1+rng.Intn(4))
			}
		}
	}()
	// Single consumer: its observation order is the dequeue order, so
	// per-flow sequence numbers must come out strictly consecutive.
	lastSeq := make([]int64, flows)
	for f := range lastSeq {
		lastSeq[f] = -1
	}
	var served int64
	drain := func() {
		for _, d := range e.DequeueNextBatch(64) {
			f := binary.LittleEndian.Uint32(d.Data)
			seq := int64(binary.LittleEndian.Uint32(d.Data[4:]))
			if f != d.Flow {
				t.Errorf("flow %d delivered flow %d's payload", d.Flow, f)
			}
			if seq != lastSeq[f]+1 {
				t.Errorf("flow %d: seq %d after %d (FIFO broken across re-homing)", f, seq, lastSeq[f])
			}
			lastSeq[f] = seq
			served++
			e.ReleaseBuffer(d.Data)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			drain()
		}
		if t.Failed() {
			close(stop)
			t.FailNow()
		}
	}
	close(stop)
	churnWG.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for {
		before := served
		drain()
		if served == before {
			break
		}
	}
	if served != enqueued.Load() {
		t.Fatalf("served %d packets, enqueued %d (packets lost or duplicated across re-homing)", served, enqueued.Load())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantClassFlowComposition: a full three-level hierarchy — tenant
// WRR 3:1 outside class strict priority outside flow RR — must compose:
// with deep backlog everywhere, each 3+1 tenant cycle grants tenant 0
// three packets and tenant 1 one, and within every tenant's grant the
// lowest backlogged class is served first. Flow f is in tenant f%2 and
// class f/2%4, so both tenants hold flows of every class.
func TestTenantClassFlowComposition(t *testing.T) {
	s := script{}
	for f := range 32 {
		s = s.do(cRehome, f, 1|f%2<<2).do(cRehome, f, 2|f/2%4<<2)
	}
	for range 4 {
		for f := range 32 {
			s = s.do(cEnqueue, f, segsArg(1))
		}
	}
	runEngine(t, Config{Shards: 1, NumFlows: 32, NumSegments: 256,
		Egress: policy.EgressConfig{Kind: policy.EgressRR, Levels: []policy.LevelSpec{
			{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 2, Weights: []int{3, 1}},
			{Tier: policy.TierClass, Kind: policy.EgressPrio, Units: 4},
		}}}, false, s.rep(64, cNext, 0))
}

// TestTenantStatsReflectBacklog: TierStats(tenant) counts backlogged flows per
// tenant across shards and reports configured weights, and re-homing a
// backlogged flow moves its count.
func TestTenantStatsReflectBacklog(t *testing.T) {
	s := script{}
	for f := range 12 {
		s = s.do(cRehome, f, 1|f%4<<2).do(cRehome, f, 2|f/4%2<<2).do(cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 256,
		Egress: policy.EgressConfig{Levels: []policy.LevelSpec{
			{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 4, Weights: []int{1, 2, 3, 4}},
			{Tier: policy.TierClass, Kind: policy.EgressRR, Units: 2},
		}}}, false, s.do(cWeight, 0, 128|3|2<<3).do(cRehome, 0, 1|1<<2)) // tenant 2 to weight 4; flow 0 to tenant 1
}

// TestTenantRehomingChurnRing is the three-level variant of
// TestClassRehomingChurnRing: backlogged flows re-home across tenants,
// classes and ports while producers enqueue and a consumer drains — on
// the ring datapath, under -race. Per-flow FIFO must survive every move,
// open visits at all three levels must end cleanly, and every packet
// enqueued must be served exactly once.
func TestTenantRehomingChurnRing(t *testing.T) {
	const (
		flows     = 256
		producers = 4
		perFlow   = 120
	)
	e, err := New(Config{
		Shards: 4, NumFlows: flows, NumSegments: 1 << 13,
		NumPorts: 4,
		Egress: policy.EgressConfig{
			Kind:         policy.EgressDRR,
			QuantumBytes: 256,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierTenant, Kind: policy.EgressDRR, Units: 3, Weights: []int{2, 1, 1}, QuantumBytes: 512},
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 4, Weights: []int{4, 3, 2, 1}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup // producers only
		churnWG  sync.WaitGroup
		enqueued atomic.Int64
		stop     = make(chan struct{})
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + p)))
			seq := make([]uint32, flows)
			for n := 0; n < perFlow*flows/producers; n++ {
				f := uint32(rng.Intn(flows/producers)*producers + p)
				buf := make([]byte, 8+rng.Intn(3*queue.SegmentBytes))
				binary.LittleEndian.PutUint32(buf, f)
				binary.LittleEndian.PutUint32(buf[4:], seq[f])
				if _, err := e.EnqueuePacket(f, buf); err == nil {
					seq[f]++
					enqueued.Add(1)
				}
			}
		}(p)
	}
	// Churn across every axis of the hierarchy; the moves land
	// mid-backlog and mid-visit by construction.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := uint32(rng.Intn(flows))
			switch rng.Intn(6) {
			case 0:
				_ = e.SetFlowTenant(f, rng.Intn(3))
			case 1:
				_ = e.SetFlowClass(f, rng.Intn(4))
			case 2:
				_ = e.SetFlowPort(f, rng.Intn(4))
			case 3:
				_ = e.SetTierWeight(policy.TierTenant, rng.Intn(3), 1+rng.Intn(4))
			case 4:
				_ = e.SetTierWeight(policy.TierClass, rng.Intn(4), 1+rng.Intn(4))
			default:
				_ = e.SetWeight(f, 1+rng.Intn(4))
			}
		}
	}()
	lastSeq := make([]int64, flows)
	for f := range lastSeq {
		lastSeq[f] = -1
	}
	var served int64
	drain := func() {
		for _, d := range e.DequeueNextBatch(64) {
			f := binary.LittleEndian.Uint32(d.Data)
			seq := int64(binary.LittleEndian.Uint32(d.Data[4:]))
			if f != d.Flow {
				t.Errorf("flow %d delivered flow %d's payload", d.Flow, f)
			}
			if seq != lastSeq[f]+1 {
				t.Errorf("flow %d: seq %d after %d (FIFO broken across re-homing)", f, seq, lastSeq[f])
			}
			lastSeq[f] = seq
			served++
			e.ReleaseBuffer(d.Data)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			drain()
		}
		if t.Failed() {
			close(stop)
			t.FailNow()
		}
	}
	close(stop)
	churnWG.Wait()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for {
		before := served
		drain()
		if served == before {
			break
		}
	}
	if served != enqueued.Load() {
		t.Fatalf("served %d packets, enqueued %d (packets lost or duplicated across re-homing)", served, enqueued.Load())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPacerOneGoroutine is the scaling claim behind the timing wheel:
// serving ~1k shaped ports over a 100k-flow space with 8 classes starts
// one pacer goroutine in all — not one per port, nor one per shard — and
// still delivers every packet.
func TestPacerOneGoroutine(t *testing.T) {
	const (
		shards  = 4
		ports   = 1024
		flows   = 100_000
		usedFlw = 4096
	)
	e, err := New(Config{
		Shards: shards, NumFlows: flows, NumSegments: 1 << 14,
		NumPorts: ports,
		// Every port shaped: 64 KB/s with a small burst, so a 2KB port
		// load outruns burst + one tick's credit and the wheel actually
		// paces instead of draining inside the burst.
		PortRate: policy.ShaperConfig{RateBytesPerSec: 64 << 10, BurstBytes: 1024},
		Egress: policy.EgressConfig{
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 8},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(0); f < usedFlw; f++ {
		if err := e.SetFlowPort(f, int(f%ports)); err != nil {
			t.Fatal(err)
		}
		if err := e.SetFlowClass(f, int(f%8)); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	var delivered atomic.Int64
	sink := SinkVFunc(func(_ int, d Dequeued) error {
		delivered.Add(1)
		return nil
	})
	for p := 0; p < ports; p++ {
		if err := e.ServeViews(p, sink); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine() - before; got > 1 {
		t.Fatalf("serving %d ports on %d shards started %d goroutines, want one pacer", ports, shards, got)
	}
	// Feed every port past its burst (4 flows × 4 × 128B = 2KB against a
	// 1KB bucket) so the wheel actually parks ports; the enqueue loop
	// rides the pool as the pacer drains it. Port by port, so a port's 2KB
	// lands back to back: spread over the whole feed, a slow feeder (the
	// race detector's) lets the bucket refill between a port's packets and
	// nothing ever parks.
	var want int64
	pkt := make([]byte, 128)
	for p := uint32(0); p < ports; p++ {
		for i := uint32(0); i < 4*usedFlw/ports; i++ {
			f := p + ports*(i/4) // the port's flows: p, p+ports, ...
			for {
				_, err := e.EnqueuePacket(f, pkt)
				if err == nil {
					break
				}
				if !errors.Is(err, queue.ErrNoFreeSegments) {
					t.Fatal(err)
				}
				time.Sleep(100 * time.Microsecond)
			}
			want++
		}
	}
	waitServed(t, e, "every packet to be delivered", nil, func() bool {
		return delivered.Load() == want
	})
	if got := runtime.NumGoroutine() - before; got > 1 {
		t.Fatalf("steady-state service runs %d extra goroutines, want one pacer", got)
	}
	if st := e.Stats(); st.Throttled == 0 {
		t.Fatal("no port ever parked on the shaper wheel (pacing never engaged)")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
