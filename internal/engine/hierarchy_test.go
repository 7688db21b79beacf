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
// level, a full drain must serve every packet of class c before any
// packet of class c+1, regardless of flow IDs (which deliberately do not
// sort with their classes here).
func TestClassPrioServesLowestClassFirst(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 64, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Kind: policy.EgressRR,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressPrio, Units: 8},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flow f lands in class (7 - f%8): high flow IDs get high priority,
	// so any accidental flow-ID ordering would fail the class assertion.
	for f := uint32(0); f < 64; f++ {
		if err := e.SetFlowClass(f, 7-int(f%8)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for f := uint32(0); f < 64; f++ {
			if _, err := e.EnqueuePacket(f, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	lastClass := -1
	for {
		d, ok := e.DequeueNext()
		if !ok {
			break
		}
		fi, err := e.Flow(d.Flow)
		if err != nil {
			t.Fatal(err)
		}
		c := fi.Class
		if c < lastClass {
			t.Fatalf("served class %d after class %d (strict priority violated)", c, lastClass)
		}
		lastClass = c
		e.ReleaseBuffer(d.Data)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestClassWRRVisitPattern: class-level WRR gives each backlogged class
// weight packets per visit, so with weights 3:1 and deep backlog the
// serve sequence cycles AAAB exactly.
func TestClassWRRVisitPattern(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 8, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Kind: policy.EgressRR,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2, Weights: []int{3, 1}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flows 0,1 in class 0; flows 2,3 in class 1.
	for f := uint32(2); f < 4; f++ {
		if err := e.SetFlowClass(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		for f := uint32(0); f < 4; f++ {
			if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := [2]int{}
	for i := 0; i < 16; i++ { // four full 3+1 cycles
		d, ok := e.DequeueNext()
		if !ok {
			t.Fatal("scheduler idle with backlog")
		}
		fi, _ := e.Flow(d.Flow)
		counts[fi.Class]++
		e.ReleaseBuffer(d.Data)
		// At every cycle boundary the ratio is exact.
		if (i+1)%4 == 0 {
			if counts[0] != 3*counts[1] {
				t.Fatalf("after %d picks: class counts %v, want exact 3:1", i+1, counts)
			}
		}
	}
}

// TestTierWeightTakesEffectMidTraffic: a class weight changed while both
// classes are backlogged governs the very next rotation. The level stack
// keeps its own copy of node weights, so SetTierWeight must refresh it;
// TierStats reads the engine's weight slice and cannot tell.
func TestTierWeightTakesEffectMidTraffic(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 8, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Kind: policy.EgressRR,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flows 0,1 in class 0; flows 2,3 in class 1.
	for f := uint32(2); f < 4; f++ {
		if err := e.SetFlowClass(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		for f := uint32(0); f < 4; f++ {
			if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// serve takes picks packets and checks the class split at every cycle
	// boundary (a cycle is wA+wB picks).
	serve := func(picks, wA, wB int) {
		t.Helper()
		counts := [2]int{}
		for i := 0; i < picks; i++ {
			d, ok := e.DequeueNext()
			if !ok {
				t.Fatal("scheduler idle with backlog")
			}
			fi, _ := e.Flow(d.Flow)
			counts[fi.Class]++
			e.ReleaseBuffer(d.Data)
			if (i+1)%(wA+wB) == 0 && counts[0]*wB != counts[1]*wA {
				t.Fatalf("after %d picks: class counts %v, want exact %d:%d", i+1, counts, wA, wB)
			}
		}
	}
	serve(8, 1, 1)
	if err := e.SetTierWeight(policy.TierClass, 0, 3); err != nil {
		t.Fatal(err)
	}
	serve(16, 3, 1)
}

// TestClassStatsReflectBacklog: TierStats(class) counts backlogged flows per
// class across shards and reports configured weights.
func TestClassStatsReflectBacklog(t *testing.T) {
	e, err := New(Config{
		Shards: 4, NumFlows: 64, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Levels: []policy.LevelSpec{
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 4, Weights: []int{1, 2, 3, 4}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(0); f < 12; f++ {
		if err := e.SetFlowClass(f, int(f%4)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.TierStats(policy.TierClass)
	if len(cs) != 4 {
		t.Fatalf("TierStats(class) length %d, want 4", len(cs))
	}
	for c, st := range cs {
		if st.Unit != c || st.ActiveFlows != 3 || st.Weight != c+1 {
			t.Fatalf("class %d stat %+v, want 3 active flows, weight %d", c, st, c+1)
		}
	}
	if err := e.SetTierWeight(policy.TierClass, 2, 9); err != nil {
		t.Fatal(err)
	}
	if cs := e.TierStats(policy.TierClass); cs[2].Weight != 9 {
		t.Fatalf("class 2 weight %d after SetTierWeight, want 9", cs[2].Weight)
	}
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
// lowest backlogged class is served first.
func TestTenantClassFlowComposition(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 32, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Kind: policy.EgressRR,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 2, Weights: []int{3, 1}},
				{Tier: policy.TierClass, Kind: policy.EgressPrio, Units: 4},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eg := e.Config().Egress; eg.Units(policy.TierTenant) != 2 || eg.Units(policy.TierClass) != 4 {
		t.Fatalf("hierarchy %d tenants × %d classes, want 2 × 4", eg.Units(policy.TierTenant), eg.Units(policy.TierClass))
	}
	// Flow f: tenant f%2, class (f/2)%4 — both tenants hold flows of
	// every class.
	for f := uint32(0); f < 32; f++ {
		if err := e.SetFlowTenant(f, int(f%2)); err != nil {
			t.Fatal(err)
		}
		if err := e.SetFlowClass(f, int(f/2)%4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for f := uint32(0); f < 32; f++ {
			if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := [2]int{}
	lastClass := [2]int{-1, -1}
	for i := 0; i < 64; i++ { // sixteen full 3+1 tenant cycles
		d, ok := e.DequeueNext()
		if !ok {
			t.Fatal("scheduler idle with backlog")
		}
		fi, err := e.Flow(d.Flow)
		if err != nil {
			t.Fatal(err)
		}
		tn, c := fi.Tenant, fi.Class
		// Strict class priority holds within each tenant's own service
		// sequence (the backlog drains class by class, so a tenant's
		// served class never decreases).
		if c < lastClass[tn] {
			t.Fatalf("tenant %d served class %d after class %d (priority violated within tenant)", tn, c, lastClass[tn])
		}
		lastClass[tn] = c
		counts[tn]++
		e.ReleaseBuffer(d.Data)
		if (i+1)%4 == 0 && counts[0] != 3*counts[1] {
			t.Fatalf("after %d picks: tenant counts %v, want exact 3:1", i+1, counts)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantStatsReflectBacklog: TierStats(tenant) counts backlogged flows per
// tenant across shards and reports configured weights, and re-homing a
// backlogged flow moves its count.
func TestTenantStatsReflectBacklog(t *testing.T) {
	e, err := New(Config{
		Shards: 4, NumFlows: 64, NumSegments: 4096,
		Egress: policy.EgressConfig{
			Levels: []policy.LevelSpec{
				{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 4, Weights: []int{1, 2, 3, 4}},
				{Tier: policy.TierClass, Kind: policy.EgressRR, Units: 2},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(0); f < 12; f++ {
		if err := e.SetFlowTenant(f, int(f%4)); err != nil {
			t.Fatal(err)
		}
		if err := e.SetFlowClass(f, int(f)/4%2); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueuePacket(f, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	ts := e.TierStats(policy.TierTenant)
	if len(ts) != 4 {
		t.Fatalf("TierStats(tenant) length %d, want 4", len(ts))
	}
	for tn, st := range ts {
		if st.Unit != tn || st.ActiveFlows != 3 || st.Weight != tn+1 {
			t.Fatalf("tenant %d stat %+v, want 3 active flows, weight %d", tn, st, tn+1)
		}
	}
	if err := e.SetTierWeight(policy.TierTenant, 2, 9); err != nil {
		t.Fatal(err)
	}
	if ts := e.TierStats(policy.TierTenant); ts[2].Weight != 9 {
		t.Fatalf("tenant 2 weight %d after SetTierWeight, want 9", ts[2].Weight)
	}
	// Re-home a backlogged flow: the counts must follow it.
	if err := e.SetFlowTenant(0, 1); err != nil {
		t.Fatal(err)
	}
	ts = e.TierStats(policy.TierTenant)
	if ts[0].ActiveFlows != 2 || ts[1].ActiveFlows != 4 {
		t.Fatalf("after re-homing flow 0 to tenant 1: counts %d/%d, want 2/4", ts[0].ActiveFlows, ts[1].ActiveFlows)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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

// TestPacerOneGoroutinePerShard is the scaling claim behind the timing
// wheel: serving ~1k shaped ports over a 100k-flow space with 8 classes
// starts one pacer goroutine per shard — not one worker per port — and
// still delivers every packet.
func TestPacerOneGoroutinePerShard(t *testing.T) {
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
	during := runtime.NumGoroutine()
	if got := during - before; got > shards {
		t.Fatalf("serving %d ports started %d goroutines, want at most %d (one pacer per shard)", ports, got, shards)
	}
	// Feed every port past its burst (4 flows × 4 × 128B = 2KB against a
	// 1KB bucket) so the wheel actually parks ports; the enqueue loop
	// rides the pool as the pacers drain it. Port by port, so a port's 2KB
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
	waitUntil(t, 10*time.Second, "all packets delivered", func() bool {
		return delivered.Load() == want
	})
	if got := runtime.NumGoroutine() - before; got > shards {
		t.Fatalf("steady-state service runs %d extra goroutines, want at most %d", got, shards)
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
