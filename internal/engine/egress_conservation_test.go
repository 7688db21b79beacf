package engine

// Egress accounting regressions and the conservation property.
//
// The two regressions pin real bugs: DRR's bound-exhaustion fallback used
// to serve a packet without charging the flow's deficit (free transmission
// forever under pathological quantum/packet-size ratios), and a WRR visit
// used to survive its flow emptying and refilling (stale credit bursts).
// The property test then holds every discipline to the structural law the
// fixes restore — served ≡ granted − outstanding — over randomized command
// sequences on FuzzEngineCommands' harness, at EVERY hierarchy
// level: per flow within its innermost list, and per node at each
// intermediate level (tenant and class) within its port. Flows are
// re-homed across randomized tenant and class configurations mid-run, so
// future accounting drift is caught without hand-written scenarios.

import (
	"fmt"
	"math/rand"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// TestDRRFallbackChargesDeficit is the regression for the free-transmit
// bug: with a 1-byte quantum the pick loop's rotation bound exhausts long
// before any deficit covers a 2 287-byte packet, so the work-conservation
// fallback serves one anyway. That service must be charged — the flow's
// deficit goes negative — not given away: before the fix the fallback
// returned the flow without deducting, so the deficit stayed non-negative
// and the flow transmitted for free forever.
func TestDRRFallbackChargesDeficit(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 1}}, false,
		script{}.do(cEnqueue, 1, 254).do(cEnqueue, 2, 254).do(cNext, 0))
	// The engine's charge is held by the audit law; this holds the script
	// to reaching the fallback at all.
	if d := h.m.flows[1].deficit + h.m.flows[2].deficit; d >= 0 {
		t.Fatalf("deficits sum to %d: no pick took the fallback", d)
	}
}

// TestWRRVisitEndsWhenFlowDrains is the regression for the stale-credit
// bug: a flow that empties mid-visit and refills before the next pick
// must not resume its old visit. Before the fix clearActive forfeited the
// DRR deficit but left visiting/credit intact, so the refilled flow burst
// ahead of its weight while its competitor waited. Flow 1 (weight 4) holds
// two packets, flow 2 four; after flow 1's two, the refilled flow 1 must
// wait for flow 2.
func TestWRRVisitEndsWhenFlowDrains(t *testing.T) {
	runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 1024,
		Egress: policy.EgressConfig{Kind: policy.EgressWRR, DefaultWeight: 1}}, false,
		script{}.do(cWeight, 1, 3).rep(2, cEnqueue, 1, segsArg(1)).rep(4, cEnqueue, 2, segsArg(1)).
			rep(2, cNext, 0).rep(4, cEnqueue, 1, segsArg(1)).do(cNext, 0))
}

// TestEgressConservationProperty drives every flow-level discipline —
// crossed with randomized two- and three-level hierarchies — through a
// randomized command sequence: enqueues, discipline serves, direct
// dequeues and deletes that empty flows mid-visit, weight changes, and
// tenant/class re-homing. The harness (runEngine) holds every pick to the
// reference model's and, after every command, the accounting law at every
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
			// Enqueues, discipline serves, direct dequeues and deletes that
			// empty flows mid-visit, weight changes, and class and tenant
			// re-homing, possibly mid-visit at any level.
			rng := rand.New(rand.NewSource(int64(1000*ci) + int64(7*tc.shards)))
			sc, ops := script{}, 1500
			if raceEnabled {
				ops = 300
			}
			for range ops {
				f := rng.Intn(64)
				switch op := rng.Intn(14); {
				case op < 5:
					sc = sc.do(cEnqueue, f, bytesArg(1+rng.Intn(9*queue.SegmentBytes)))
				case op < 9:
					sc = sc.do(cNext, 0)
				case op < 10:
					sc = sc.do(cDequeue, f, 0)
				case op < 11:
					sc = sc.do(cDelete, f)
				case op < 12:
					sc = sc.do(cWeight, f, rng.Intn(5))
				case op < 13:
					sc = sc.do(cRehome, f, 2|rng.Intn(tc.classes)<<2)
				default:
					sc = sc.do(cRehome, f, 1|rng.Intn(tc.tenants)<<2)
				}
			}
			runEngine(t, Config{Shards: tc.shards, NumFlows: 64, NumSegments: 1024, Egress: eg}, false, sc)
		})
	}
}
