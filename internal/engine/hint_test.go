package engine

// The pipelined drain's edges (egress.go, hintAhead). Hints are read-only,
// so each edge is a command script on the reference harness — which marks
// every shard shared, so every drain runs the pipeline — checked packet by
// packet against the model and by CheckInvariants after every command.

import (
	"testing"

	"npqm/internal/policy"
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
