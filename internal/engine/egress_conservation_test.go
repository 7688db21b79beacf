package engine

// Egress accounting regressions and the conservation property.
//
// The two regressions pin real bugs: DRR's bound-exhaustion fallback used
// to serve a packet without charging the flow's deficit (free transmission
// forever under pathological quantum/packet-size ratios), and a WRR visit
// used to survive its flow emptying and refilling (stale credit bursts).
// The property test then holds every discipline to the structural law the
// fixes restore — served ≡ granted − outstanding — over randomized command
// sequences in the spirit of FuzzManagerCommands, at EVERY hierarchy
// level: per flow within its innermost list, and per node at each
// intermediate level (tenant and class) within its port. Flows are
// re-homed across randomized tenant and class configurations mid-run, so
// future accounting drift is caught without hand-written scenarios.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/sched"
)

// enableEgressAudit arms the grant-accounting hooks on every shard, at
// every hierarchy level (ports that already built their level stack get
// their audit slices retrofitted).
func enableEgressAudit(e *Engine) {
	for _, s := range e.shards {
		e.run(s, func() {
			s.eg.audit = make([]int64, e.cfg.NumFlows)
			s.eg.auditLevels = true
			for p := range s.ps {
				if ps := &s.ps[p]; ps.st.Ready() && ps.audits == nil {
					s.initLevelAuditLocked(ps)
				}
			}
		})
	}
}

// TestDRRFallbackChargesDeficit is the regression for the free-transmit
// bug: with a 1-byte quantum and 9000-byte packets the pick loop's
// rotation bound exhausts long before any deficit covers a packet, so the
// work-conservation fallback serves one anyway. That service must be
// charged — the flow's deficit goes negative — not given away: before the
// fix the fallback returned the flow without deducting, so the deficit
// stayed non-negative and the flow transmitted for free forever.
func TestDRRFallbackChargesDeficit(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 8, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const pktBytes = 9000
	for _, f := range []uint32{1, 2} {
		if _, err := e.EnqueuePacket(f, make([]byte, pktBytes)); err != nil {
			t.Fatal(err)
		}
	}
	d, ok := e.DequeueNext()
	if !ok {
		t.Fatal("work-conserving scheduler went idle with backlog")
	}
	if len(d.Data) != pktBytes {
		t.Fatalf("served %d bytes, want %d", len(d.Data), pktBytes)
	}
	e.ReleaseBuffer(d.Data)
	s := e.shards[0]
	var deficit int64
	e.run(s, func() { deficit = s.Deficit(int32(d.Flow)) })
	// The flow banked at most maxIter quanta (a few KB) before the
	// fallback served its 9000-byte packet: charging that service must
	// leave it in debt.
	if deficit >= 0 {
		t.Fatalf("fallback-served flow %d has deficit %d, want < 0 (service was not charged)", d.Flow, deficit)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWRRVisitEndsWhenFlowDrains is the regression for the stale-credit
// bug: a flow that empties mid-visit and refills before the next pick
// must not resume its old visit. Before the fix clearActive forfeited the
// DRR deficit but left visiting/credit intact, so the refilled flow burst
// ahead of its weight while its competitor waited.
func TestWRRVisitEndsWhenFlowDrains(t *testing.T) {
	e, err := New(Config{
		Shards: 1, NumFlows: 8, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressWRR, DefaultWeight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetWeight(1, 4); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, queue.SegmentBytes)
	for i := 0; i < 2; i++ {
		if _, err := e.EnqueuePacket(1, pkt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(2, pkt); err != nil {
			t.Fatal(err)
		}
	}
	// Flow 1's visit starts (weight 4) but its queue holds only two
	// packets: the visit dies with the flow's backlog.
	for i := 0; i < 2; i++ {
		d, ok := e.DequeueNext()
		if !ok || d.Flow != 1 {
			t.Fatalf("pick %d served flow %d (ok=%v), want flow 1", i, d.Flow, ok)
		}
		e.ReleaseBuffer(d.Data)
	}
	// Refill flow 1 before the next pick. A correctly ended visit moves
	// on to flow 2; the stale visit would serve flow 1 again on leftover
	// credit.
	for i := 0; i < 4; i++ {
		if _, err := e.EnqueuePacket(1, pkt); err != nil {
			t.Fatal(err)
		}
	}
	d, ok := e.DequeueNext()
	if !ok {
		t.Fatal("scheduler idle with backlog")
	}
	e.ReleaseBuffer(d.Data)
	if d.Flow != 2 {
		t.Fatalf("pick after mid-visit drain served flow %d, want flow 2 (stale WRR credit resumed)", d.Flow)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEgressConservationProperty drives every flow-level discipline —
// crossed with randomized two- and three-level hierarchies — through a
// randomized command sequence: enqueues, discipline serves, direct
// dequeues and deletes that empty flows mid-visit, weight changes, and
// tenant/class re-homing. It then checks the accounting law at every
// level of the stack:
//
//	DRR:  bytes served == quanta granted − deficit outstanding
//	WRR:  packets served == visit credit granted − credit outstanding
//
// per flow (leaf-level grants) and per node at each intermediate level
// (tenant-level and class-level grants), with grants audited inside the
// pickers (net of forfeiture). Any path that serves without charging,
// charges without serving, or leaks credit across a drain or a re-home
// breaks an equality. The pathological 1-byte quantum case routes every
// DRR pick through the work-conservation fallback, so the regression
// above is also covered structurally here.
func TestEgressConservationProperty(t *testing.T) {
	type caseCfg struct {
		eg               policy.EgressConfig
		shards           int
		tenants, classes int
	}
	var cases []caseCfg
	flowKinds := []policy.EgressConfig{
		{Kind: policy.EgressRR},
		{Kind: policy.EgressPrio},
		{Kind: policy.EgressWRR, DefaultWeight: 3},
		{Kind: policy.EgressDRR, QuantumBytes: 512},
		{Kind: policy.EgressDRR, QuantumBytes: 1}, // fallback-heavy
	}
	levelKinds := []policy.EgressKind{policy.EgressRR, policy.EgressPrio, policy.EgressWRR, policy.EgressDRR}
	crng := rand.New(rand.NewSource(41))
	randWeights := func(n int) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + crng.Intn(4)
		}
		return w
	}
	for i, fk := range flowKinds {
		for _, shards := range []int{1, 4} {
			// The flat configuration, a randomized 8-class two-level
			// hierarchy, and a randomized 3-tenant × 4-class three-level
			// hierarchy, with the level kinds cycling so every
			// (flow, level) discipline pairing appears across the matrix.
			cases = append(cases, caseCfg{eg: fk, shards: shards, tenants: 1, classes: 1})
			two := fk.WithLevel(policy.LevelSpec{
				Tier:         policy.TierClass,
				Kind:         levelKinds[(i+shards)%len(levelKinds)],
				Units:        8,
				Weights:      randWeights(8),
				QuantumBytes: 256 << crng.Intn(3),
			})
			cases = append(cases, caseCfg{eg: two, shards: shards, tenants: 1, classes: 8})
			three := fk.WithLevel(policy.LevelSpec{
				Tier:         policy.TierClass,
				Kind:         levelKinds[(i+shards+1)%len(levelKinds)],
				Units:        4,
				Weights:      randWeights(4),
				QuantumBytes: 256 << crng.Intn(3),
			}).WithLevel(policy.LevelSpec{
				Tier:         policy.TierTenant,
				Kind:         levelKinds[(i+shards+2)%len(levelKinds)],
				Units:        3,
				Weights:      randWeights(3),
				QuantumBytes: 256 << crng.Intn(3),
			})
			cases = append(cases, caseCfg{eg: three, shards: shards, tenants: 3, classes: 4})
		}
	}
	for ci, tc := range cases {
		eg := tc.eg
		name := fmt.Sprintf("%v/q=%d/shards=%d", eg.Kind, eg.QuantumBytes, tc.shards)
		if ls := eg.Level(policy.TierTenant); ls != nil {
			name += fmt.Sprintf("/tenants=%d-%v", ls.Units, ls.Kind)
		}
		if ls := eg.Level(policy.TierClass); ls != nil {
			name += fmt.Sprintf("/classes=%d-%v", ls.Units, ls.Kind)
		}
		t.Run(name, func(t *testing.T) {
			const flows = 64
			e, err := New(Config{
				Shards: tc.shards, NumFlows: flows, NumSegments: 4096,
				Egress: eg,
			})
			if err != nil {
				t.Fatal(err)
			}
			enableEgressAudit(e)
			rng := rand.New(rand.NewSource(int64(1000*ci) + int64(7*tc.shards)))
			servedBytes := make([]int64, flows)
			servedPkts := make([]int64, flows)
			// Per-level service tallies, per (shard, level, composite
			// node); every flow stays on port 0 here (cross-port churn
			// has its own test). The level layout is identical on every
			// shard, so shard 0's levels describe them all.
			levels := e.shards[0].eg.levels
			levelBytes := make([][][]int64, tc.shards)
			levelPkts := make([][][]int64, tc.shards)
			for si := range levelBytes {
				levelBytes[si] = make([][]int64, len(levels))
				levelPkts[si] = make([][]int64, len(levels))
				for k := range levels {
					levelBytes[si][k] = make([]int64, levels[k].count)
					levelPkts[si][k] = make([]int64, levels[k].count)
				}
			}
			// flowLevel resolves the Level whose rotation currently
			// arbitrates flow f — the root when the stack is flat, the
			// innermost node's child list otherwise.
			flowLevel := func(s *shard, ps *portSched, f uint32) *sched.Level {
				n := ps.st.Depth()
				if n == 0 {
					return ps.st.Root()
				}
				var pb [numTiers]int32
				path := s.pathOf(f, pb[:0])
				return ps.st.Child(n-1, path[n-1])
			}
			check := func(stage string) {
				t.Helper()
				for f := uint32(0); f < flows; f++ {
					s := e.shardOf(f)
					ps := &s.ps[s.flows[f].port]
					switch s.eg.kind {
					case policy.EgressDRR:
						deficit := s.Deficit(int32(f))
						if got, want := servedBytes[f], s.eg.audit[f]-deficit; got != want {
							t.Fatalf("%s: flow %d served %d bytes, granted−outstanding = %d−%d = %d",
								stage, f, got, s.eg.audit[f], deficit, want)
						}
					case policy.EgressWRR:
						var credit int64
						if ps.st.Ready() {
							if fl := flowLevel(s, ps, f); fl.Visiting() && fl.Cursor() == int32(f) {
								credit = fl.Credit()
							}
						}
						if got, want := servedPkts[f], s.eg.audit[f]-credit; got != want {
							t.Fatalf("%s: flow %d served %d packets, granted−outstanding = %d−%d = %d",
								stage, f, got, s.eg.audit[f], credit, want)
						}
					}
				}
				for si, s := range e.shards {
					ps := &s.ps[0]
					if !ps.st.Ready() {
						continue
					}
					for k := range s.eg.levels {
						lv := &s.eg.levels[k]
						for idx := int32(0); idx < lv.count; idx++ {
							switch lv.kind {
							case policy.EgressDRR:
								deficit := ps.st.NodeDeficit(k, idx)
								if got, want := levelBytes[si][k][idx], ps.audits[k][idx]-deficit; got != want {
									t.Fatalf("%s: shard %d level %d (%s) node %d served %d bytes, granted−outstanding = %d−%d = %d",
										stage, si, k, lv.tier, idx, got, ps.audits[k][idx], deficit, want)
								}
							case policy.EgressWRR:
								parent := ps.st.Root()
								if k > 0 {
									parent = ps.st.Child(k-1, idx/lv.mod)
								}
								var credit int64
								if parent.Visiting() && parent.Cursor() == idx {
									credit = parent.Credit()
								}
								if got, want := levelPkts[si][k][idx], ps.audits[k][idx]-credit; got != want {
									t.Fatalf("%s: shard %d level %d (%s) node %d served %d packets, granted−outstanding = %d−%d = %d",
										stage, si, k, lv.tier, idx, got, ps.audits[k][idx], credit, want)
								}
							}
						}
					}
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
			}
			tally := func(f uint32, bytes int64) {
				servedBytes[f] += bytes
				servedPkts[f]++
				s := e.shardOf(f)
				si := e.ShardOf(f)
				var pb [numTiers]int32
				for k, idx := range s.pathOf(f, pb[:0]) {
					levelBytes[si][k][idx] += bytes
					levelPkts[si][k][idx]++
				}
			}
			serve := func() {
				d, ok := e.DequeueNext()
				if !ok {
					return
				}
				tally(d.Flow, int64(len(d.Data)))
				e.ReleaseBuffer(d.Data)
			}
			for i := 0; i < 20000; i++ {
				f := uint32(rng.Intn(flows))
				switch op := rng.Intn(14); {
				case op < 5:
					size := 1 + rng.Intn(9*queue.SegmentBytes)
					_, err := e.EnqueuePacket(f, make([]byte, size))
					if err != nil && !errors.Is(err, queue.ErrNoFreeSegments) {
						t.Fatal(err)
					}
				case op < 9:
					serve()
				case op < 10:
					// Direct drain: empties flows mid-visit, the path
					// that used to leak WRR credit and must forfeit
					// banked (positive) DRR deficit.
					if data, err := e.DequeuePacket(f); err == nil {
						e.ReleaseBuffer(data)
					}
				case op < 11:
					_, _ = e.DeletePacket(f)
				case op < 12:
					if err := e.SetWeight(f, 1+rng.Intn(5)); err != nil {
						t.Fatal(err)
					}
				case op < 13:
					// Class re-homing, possibly mid-visit at any level:
					// open visits must end and banked credit must be
					// forfeited exactly as on a drain.
					if tc.classes > 1 {
						if err := e.SetFlowClass(f, rng.Intn(tc.classes)); err != nil {
							t.Fatal(err)
						}
					}
				default:
					// Tenant re-homing: the flow moves with its class
					// across the outermost level.
					if tc.tenants > 1 {
						if err := e.SetFlowTenant(f, rng.Intn(tc.tenants)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if i%4096 == 0 {
					check(fmt.Sprintf("step %d", i))
				}
			}
			check("end of run")
			// Drain through the discipline and re-check: conservation
			// must survive the backlog's full service too.
			for {
				d, ok := e.DequeueNext()
				if !ok {
					break
				}
				tally(d.Flow, int64(len(d.Data)))
				e.ReleaseBuffer(d.Data)
			}
			check("after drain")
			if st := e.Stats(); st.ActiveFlows != 0 || st.QueuedSegments != 0 {
				t.Fatalf("engine not empty after drain: %d flows, %d segments", st.ActiveFlows, st.QueuedSegments)
			}
		})
	}
}
