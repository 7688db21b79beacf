package sched

import (
	"testing"

	"npqm/internal/policy"
)

// countingHier is a Hierarchy that counts every call made to it, so a
// test can hold the Stack to reading its configuration only at Init and
// Refresh. Level k has width[k] composite nodes; leaf f sits under
// tenant f%2 and, at depth 2, under class node tenant*2 + (f/2)%2.
type countingHier struct {
	params  []Params
	weights [][]int64
	leafP   Params
	leaf    *testEnt
	audits  [][]int64
	calls   int
	levels  map[int]int // Params calls per level
}

func newCountingHier(depth int) (*countingHier, []int32) {
	h := &countingHier{
		leafP:  Params{Kind: policy.EgressDRR, Quantum: 100},
		leaf:   newEnt(8),
		levels: map[int]int{},
	}
	var counts []int32
	for k := 0; k < depth; k++ {
		n := int32(2) << k // 2 tenants, then 2 classes each
		counts = append(counts, n)
		kind := policy.EgressDRR
		if k%2 == 1 {
			kind = policy.EgressWRR
		}
		h.params = append(h.params, Params{Kind: kind, Quantum: 100})
		h.weights = append(h.weights, make([]int64, n))
		h.audits = append(h.audits, make([]int64, n))
		for i := range h.weights[k] {
			h.weights[k][i] = 1
		}
	}
	return h, counts
}

func (h *countingHier) Params(level int) Params {
	h.calls++
	h.levels[level]++
	return h.params[level]
}
func (h *countingHier) Weight(level int, id int32) int64 { h.calls++; return h.weights[level][id] }
func (h *countingHier) LeafParams() Params               { h.calls++; return h.leafP }
func (h *countingHier) Leaf() Entity                     { h.calls++; return h.leaf }
func (h *countingHier) AuditNode(level int, id int32, delta int64) {
	h.calls++
	h.audits[level][id] += delta
}

func pathOf(depth int, leaf int32, buf []int32) []int32 {
	if depth >= 1 {
		buf = append(buf, leaf%2)
	}
	if depth >= 2 {
		buf = append(buf, (leaf%2)*2+(leaf/2)%2)
	}
	return buf
}

// TestStackReadsConfigurationOnce pins the Stack's configuration
// contract: after Init, picks, activations, deactivations and charges
// make no Hierarchy call at any depth; Refresh re-reads every level; and
// a change the Hierarchy reports is not seen until Refresh.
func TestStackReadsConfigurationOnce(t *testing.T) {
	for depth := 0; depth <= 2; depth++ {
		h, counts := newCountingHier(depth)
		var st Stack
		st.Init(h, counts)
		h.calls = 0
		var pb [2]int32
		for round := 0; round < 3; round++ {
			for f := int32(0); f < 8; f++ {
				st.Activate(f, pathOf(depth, f, pb[:0]))
			}
			for i := 0; i < 24; i++ {
				f, debit, ok := st.Pick()
				if !ok {
					t.Fatalf("depth %d: pick %d found the stack empty", depth, i)
				}
				h.leaf.deficit[f] -= debit
				st.Charge(pathOf(depth, f, pb[:0]), debit)
			}
			for f := int32(0); f < 8; f++ {
				st.Deactivate(f, pathOf(depth, f, pb[:0]))
			}
		}
		if h.calls != 0 {
			t.Fatalf("depth %d: %d Hierarchy calls after Init, want 0", depth, h.calls)
		}
		for f, a := range h.leaf.audit {
			if a != 0 {
				t.Fatalf("depth %d: leaf %d audited %d with Audit off", depth, f, a)
			}
		}

		// Refresh re-reads every level once, every node's weight and the leaf.
		clear(h.levels)
		st.Refresh()
		nodes := 0
		for k, n := range counts {
			nodes += int(n)
			if h.levels[k] != 1 {
				t.Fatalf("depth %d: Refresh read level %d's Params %d times, want 1", depth, k, h.levels[k])
			}
		}
		if want := depth + nodes + 2; h.calls != want {
			t.Fatalf("depth %d: Refresh made %d Hierarchy calls, want %d", depth, h.calls, want)
		}

		// A change made without Refresh is not seen; after Refresh it is.
		h.leafP.Audit = true
		for k := range h.params {
			h.params[k].Audit = true
			h.weights[k][0] = 3
		}
		serve := func() {
			for f := int32(0); f < 8; f++ {
				st.Activate(f, pathOf(depth, f, pb[:0]))
			}
			for i := 0; i < 8; i++ {
				f, debit, _ := st.Pick()
				h.leaf.deficit[f] -= debit
				st.Charge(pathOf(depth, f, pb[:0]), debit)
			}
			for f := int32(0); f < 8; f++ {
				st.Deactivate(f, pathOf(depth, f, pb[:0]))
			}
		}
		serve()
		for k := range counts {
			if w := st.Ent(k).Weight(0); w != 1 {
				t.Fatalf("depth %d: level %d node 0 weight %d before Refresh, want the old 1", depth, k, w)
			}
		}
		if audited(h) {
			t.Fatalf("depth %d: audit turned on without Refresh", depth)
		}
		st.Refresh()
		serve()
		for k := range counts {
			if w := st.Ent(k).Weight(0); w != 3 {
				t.Fatalf("depth %d: level %d node 0 weight %d after Refresh, want 3", depth, k, w)
			}
		}
		if !audited(h) {
			t.Fatalf("depth %d: audit still off after Refresh", depth)
		}
	}
}

// audited reports whether any leaf or node has an audit entry.
func audited(h *countingHier) bool {
	for _, a := range h.leaf.audit {
		if a != 0 {
			return true
		}
	}
	for _, lv := range h.audits {
		for _, a := range lv {
			if a != 0 {
				return true
			}
		}
	}
	return false
}
