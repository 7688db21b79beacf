package engine

// Construction-scale smoke for the N-level hierarchy: a 1M-flow engine
// with 4k ports and an 8-tenant × 8-class level stack must construct in
// bounded memory — the dense flowState table is the design's footprint
// claim (one fixed-size entry per flow, no per-flow allocations), and
// per-port level state is built lazily so 4k mostly-idle ports cost
// nothing until touched. Skipped in -short mode: the test allocates tens
// of MiB and sweeps every port once.

import (
	"runtime"
	"testing"
	"unsafe"

	"npqm/internal/policy"
)

func TestScaleThreeLevelHierarchySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short mode")
	}
	const (
		flows   = 1 << 20
		ports   = MaxPorts // 4096
		tenants = 8
		classes = 8
		touched = 2 * ports // flows that actually carry traffic
	)
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{
		Shards: 8, NumFlows: flows, NumSegments: 1 << 16,
		NumPorts: ports,
		Egress: policy.EgressConfig{
			Kind: policy.EgressDRR, QuantumBytes: 512,
			Levels: []policy.LevelSpec{
				{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: tenants},
				{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: classes},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := e.Config(); cfg.Egress.Units(policy.TierTenant) != tenants || cfg.Egress.Units(policy.TierClass) != classes || cfg.NumPorts != ports {
		t.Fatalf("built %d tenants × %d classes × %d ports",
			cfg.Egress.Units(policy.TierTenant), cfg.Egress.Units(policy.TierClass), cfg.NumPorts)
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perFlow := unsafe.Sizeof(flowState{}) + unsafe.Sizeof(flowLinks{})
	tableBytes := int64(flows) * int64(perFlow)
	t.Logf("dense flow tables: %d flows × %d B = %.1f MiB; construction heap growth ≈ %.1f MiB",
		flows, perFlow, float64(tableBytes)/(1<<20), float64(growth)/(1<<20))
	// Per-flow state must stay dense and fixed-size: the scheduler's
	// flow tables plus one queue-table row per flow — each shard's table
	// holds only the flows it owns, so the rows sum to the flow space
	// once, not once per shard — with the segment pool and 4k port shells
	// riding along. ~83.9 MiB today; the bound catches any change that makes
	// per-flow or per-port state super-linear, or scales it with the shard
	// count.
	if growth > 120<<20 {
		t.Fatalf("construction grew the heap by %.1f MiB, want ≤ 120 MiB", float64(growth)/(1<<20))
	}
	// Brief traffic sweeping every port: each touched flow homes to a
	// distinct (port, tenant, class) coordinate, carries one packet, and
	// the full drain must serve them all — so every port's level stack is
	// built, activated, and torn down once.
	pkt := make([]byte, 200)
	for f := uint32(0); f < touched; f++ {
		if err := e.SetFlowPort(f, int(f)%ports); err != nil {
			t.Fatal(err)
		}
		if err := e.SetFlowTenant(f, int(f/8)%tenants); err != nil {
			t.Fatal(err)
		}
		if err := e.SetFlowClass(f, int(f)%classes); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueuePacket(f, pkt); err != nil {
			t.Fatal(err)
		}
	}
	served := 0
	for {
		batch := e.DequeueNextBatch(256)
		if len(batch) == 0 {
			break
		}
		for _, d := range batch {
			e.ReleaseBuffer(d.Data)
		}
		served += len(batch)
	}
	if served != touched {
		t.Fatalf("served %d packets, enqueued %d", served, touched)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
