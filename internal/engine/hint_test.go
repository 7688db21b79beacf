package engine

// The pipelined drain's edges (egress.go, hintAhead). Hints are read-only,
// so each edge is a command script on the reference harness — which marks
// every shard shared, so every drain runs the pipeline — checked packet by
// packet against the model and by CheckInvariants after every command.

import (
	"errors"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/sched"
)

// TestPipelinedDrainOneFlow: with one active flow the look-ahead wraps to
// the flow itself, under RR and under DRR, whose visits serve it several
// packets in a row.
func TestPipelinedDrainOneFlow(t *testing.T) {
	for _, eg := range []policy.EgressConfig{{}, {Kind: policy.EgressDRR, QuantumBytes: 256}} {
		runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 256, Egress: eg}, false,
			script{}.rep(20, cEnqueue, 3, segsArg(1)).rep(3, cNextBatch, 8<<1).do(cNextBatch, 8<<1|1))
	}
}

// TestPipelinedDrainFlowEmpties: flows empty in the middle of a batch, so
// the flows predicted behind them leave the list or become the only one.
func TestPipelinedDrainFlowEmpties(t *testing.T) {
	sc := script{}.do(cEnqueue, 0, segsArg(1)).rep(3, cEnqueue, 1, segsArg(2)).rep(2, cEnqueue, 2, segsArg(1)).
		do(cEnqueue, 3, segsArg(3)).do(cNextBatch, 8<<1).
		do(cEnqueue, 4, segsArg(1)).do(cEnqueue, 5, segsArg(1)).do(cNextBatch, 3<<1|1).do(cNextBatch, 8<<1)
	for _, shards := range []int{1, 2} {
		runEngine(t, Config{Shards: shards, NumFlows: 8, NumSegments: 256}, false, sc)
	}
}

// TestPipelinedDrainSlabEnd: a one-shard pool of 32 segments is one
// magazine, so after 31 one-segment arrivals the allocation side's head —
// which AllocN hints — is the slab's last segment, whose payload line is
// the slab's last; the 32nd arrival empties the magazine, which hints
// nothing. Then the pool turns over once more.
func TestPipelinedDrainSlabEnd(t *testing.T) {
	sc := script{}
	for i := range 32 {
		sc = sc.do(cEnqueue, i%8, segsArg(1))
	}
	sc = sc.rep(4, cNextBatch, 8<<1).rep(32, cEnqueue, 5, segsArg(1)).rep(4, cNextBatch, 8<<1|1).do(cRelease, 1)
	runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 32}, false, sc)
}

// TestPipelinedDrainStalePrediction: MovePacket and DeletePacket between
// two drains reorder and shrink the active list the first drain walked;
// the second predicts afresh from the stack.
func TestPipelinedDrainStalePrediction(t *testing.T) {
	sc := script{}
	for f := range 6 {
		sc = sc.rep(2, cEnqueue, f, segsArg(1))
	}
	sc = sc.do(cNextBatch, 2<<1).do(cMove, 2, 5).do(cDelete, 3).do(cMove, 4, 4).do(cDelete, 3).
		do(cNextBatch, 8<<1).do(cMove, 5, 0).do(cNextBatch, 8<<1)
	for _, shards := range []int{1, 2} {
		runEngine(t, Config{Shards: shards, NumFlows: 8, NumSegments: 256}, false, sc)
	}
}

// hier3 is a tenant WRR 3:1 → class WRR → flow DRR stack: two tenants,
// two classes, and a flow quantum of one 64-byte packet.
var hier3 = policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 64, Levels: []policy.LevelSpec{
	{Tier: policy.TierTenant, Kind: policy.EgressWRR, Units: 2, Weights: []int{3, 1}},
	{Tier: policy.TierClass, Kind: policy.EgressWRR, Units: 2, Weights: []int{2, 1}},
}}

// TestPipelinedDrainHierarchy: with levels the lookahead restarts from the
// stack's rotation state on every pick, and an anyPort pull that changes
// port hints nothing. Flow f is in tenant f%2 and class f/2%2; flows 12…15 sit on port 1. One-
// packet flows, and with them whole classes and a tenant, empty in the
// middle of batches; MovePacket and DeletePacket reshape the lists between
// two drains; a last batch alternates between the two ports.
func TestPipelinedDrainHierarchy(t *testing.T) {
	sc := script{}
	for f := range 16 {
		sc = sc.do(cRehome, f, 1|f%2<<2).do(cRehome, f, 2|f/2%2<<2)
	}
	for f := 12; f < 16; f++ {
		sc = sc.do(cRehome, f, 1<<2) // port 1
	}
	for f := range 12 {
		sc = sc.do(cEnqueue, f, segsArg(1))
	}
	sc = sc.rep(2, cNextBatch, 8<<1)
	sc = sc.rep(3, cEnqueue, 0, segsArg(1)).rep(2, cEnqueue, 5, segsArg(2)).do(cEnqueue, 6, segsArg(1)).
		do(cEnqueue, 3, segsArg(1)).do(cEnqueue, 9, segsArg(3)).do(cNextBatch, 3<<1).
		do(cMove, 0, 6).do(cDelete, 5).do(cMove, 9, 2).do(cNextBatch, 8<<1|1).do(cRelease, 1)
	for f := range 16 {
		if f < 4 || f >= 12 {
			sc = sc.do(cEnqueue, f, segsArg(1))
		}
	}
	sc = sc.rep(2, cNextBatch, 8<<1)
	for _, shards := range []int{1, 2} {
		runEngine(t, Config{Shards: shards, NumFlows: 16, NumPorts: 2, NumSegments: 256, Egress: hier3}, false, sc)
	}
}

// predictions drains every packet of e's one shard on port, in batches of
// batch, running the pipeline as drainShard does, and counts the picks
// after a batch's first: how many the nearest prediction (the lookahead's
// f[0] after the pick before) named.
func predictions(t *testing.T, e *Engine, port, batch int) (hits, picks int) {
	t.Helper()
	s := e.shards[0]
	for served := -1; served != 0; {
		served = 0
		e.run(s, func() {
			var la lookahead
			var d Dequeued
			pred := sched.None
			for ; served < batch; served++ {
				flow, debit, ok := s.pickLocked(port)
				if !ok {
					break
				}
				if pred != sched.None {
					picks++
					if int32(flow) == pred {
						hits++
					}
				}
				s.hintAhead(&la, flow, port)
				if pred = sched.None; la.n > 0 {
					pred = la.f[0]
				}
				if err := s.take(&d, flow, false, debit); err != nil {
					t.Fatal(err)
				}
				e.ReleaseBuffer(d.Data)
			}
		})
	}
	return hits, picks
}

// TestPipelinedDrainPredictsNextPick pins the lookahead's accuracy over
// one-packet flows, where every pick empties its flow: the nearest
// prediction is the next pick in at least 99% of picks on the three-level
// stack, and in every pick under flat RR, on one port and on one port's
// drain (the pacer's) while another port holds packets. A pull across two
// ports (anyPort) changes port on every pick and predicts none. A
// predictor that follows the served flow's leaf list named 323 of the
// hierarchy's 504 next picks, and none of the two-port pull's.
func TestPipelinedDrainPredictsNextPick(t *testing.T) {
	for _, c := range []struct {
		name          string
		eg            policy.EgressConfig
		ports, target int
		want          float64
	}{
		{"tenant-class-flow", hier3, 1, anyPort, 0.99},
		{"tenant-class-flow-port-0-of-2", hier3, 2, 0, 0.99},
		{"flat-rr", policy.EgressConfig{}, 1, anyPort, 1},
		{"flat-rr-two-ports", policy.EgressConfig{}, 2, anyPort, 0},
		{"flat-rr-port-0-of-2", policy.EgressConfig{}, 2, 0, 1},
	} {
		const flows = 512
		e, err := New(Config{Shards: 1, NumFlows: flows, NumPorts: c.ports, NumSegments: 4096, Egress: c.eg})
		if err != nil {
			t.Fatal(err)
		}
		for f := range flows {
			if err := e.SetFlowPort(uint32(f), f%c.ports); err != nil {
				t.Fatal(err)
			}
			if c.eg.Levels != nil {
				if err := errors.Join(e.SetFlowTenant(uint32(f), f%2), e.SetFlowClass(uint32(f), f/2%2)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.EnqueuePacket(uint32(f), make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
		}
		hits, picks := predictions(t, e, c.target, 64)
		e.Close()
		t.Logf("%s: %d hits in %d picks", c.name, hits, picks)
		if c.want == 0 {
			if picks != 0 {
				t.Errorf("%s: the lookahead predicted %d picks of a pull that changes port on every pick, want none", c.name, picks)
			}
			continue
		}
		if picks < flows/c.ports*9/10 || float64(hits) < c.want*float64(picks) {
			t.Errorf("%s: the nearest prediction named the next pick in %d of %d picks, want %.0f%%", c.name, hits, picks, 100*c.want)
		}
	}
}
