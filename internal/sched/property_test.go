package sched

import (
	"fmt"
	"testing"

	"npqm/internal/xrand"
)

// TestSchedulersWorkConserving is the property test behind the policy
// layer's egress guarantee: a discipline must never report "all empty"
// while any queue has backlog, and must never pick an empty queue. Each
// trial builds random backlogs, then serves packet by packet until the
// system drains; any idle verdict with work outstanding fails.
func TestSchedulersWorkConserving(t *testing.T) {
	rng := xrand.New(20260729)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		weights := make([]int64, n)
		for q := range weights {
			weights[q] = int64(1 + rng.Intn(5))
		}
		disciplines := []struct {
			name string
			p    Params
		}{
			{"rr", rrParams()}, {"prio", prioParams()}, {"wrr", wrrParams()},
		}
		for _, dc := range disciplines {
			t.Run(fmt.Sprintf("trial%d/%s", trial, dc.name), func(t *testing.T) {
				backlog := make([]int, n)
				total := 0
				for q := range backlog {
					backlog[q] = rng.Intn(6) // zeros included
					total += backlog[q]
				}
				qs := newQueues(dc.p, backlog)
				copy(qs.e.weight, weights)
				for ; total > 0; total-- {
					if _, ok := qs.serve(t); !ok { // serve fails the test on an empty pick
						t.Fatalf("discipline idle with %d packets backlogged (%v)", total, backlog)
					}
				}
				if _, ok := qs.serve(t); ok {
					t.Fatal("discipline claims work on a drained system")
				}
			})
		}
	}
}

// TestDRRWorkConserving drives deficit round-robin with random
// variable-length packets: the deficit mechanism must still serve some
// queue whenever backlog exists, for any quantum/packet-size mix.
func TestDRRWorkConserving(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		// Per-queue FIFO of packet lengths.
		pkts := make([][]int64, n)
		backlog := make([]int, n)
		total := 0
		for q := range pkts {
			for i := rng.Intn(5); i > 0; i-- {
				pkts[q] = append(pkts[q], int64(64+rng.Intn(1455)))
			}
			backlog[q] = len(pkts[q])
			total += backlog[q]
		}
		// A byte quantum of 1 makes the weight the queue's own quantum.
		qs := newQueues(drrParams(1), backlog)
		for q := range pkts {
			qs.e.weight[q] = int64(1 + rng.Intn(1500))
			if len(pkts[q]) > 0 {
				qs.e.head[q] = pkts[q][0]
			}
		}
		for ; total > 0; total-- {
			q, ok := qs.serve(t)
			if !ok {
				t.Fatalf("trial %d: DRR idle with %d packets backlogged", trial, total)
			}
			if pkts[q] = pkts[q][1:]; len(pkts[q]) > 0 {
				qs.e.head[q] = pkts[q][0]
			}
		}
		if _, ok := qs.serve(t); ok {
			t.Fatalf("trial %d: DRR claims work on a drained system", trial)
		}
	}
}
