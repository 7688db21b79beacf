package sched

import (
	"math/rand"
	"slices"
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
			if w := st.ents[k].Weight(0); w != 1 {
				t.Fatalf("depth %d: level %d node 0 weight %d before Refresh, want the old 1", depth, k, w)
			}
		}
		if audited(h) {
			t.Fatalf("depth %d: audit turned on without Refresh", depth)
		}
		st.Refresh()
		serve()
		for k := range counts {
			if w := st.ents[k].Weight(0); w != 3 {
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

// ringLeaves walks st from its root through Links at every level, failing
// the test on a ring that breaks (a Next whose Prev does not point back) or
// does not close in Count steps, and returns the leaves linked under it.
func ringLeaves(t *testing.T, st *Stack) []int32 {
	t.Helper()
	var leaves []int32
	var walk func(k int, l *Level)
	walk = func(k int, l *Level) {
		ln, id := st.Links(k), l.Cursor()
		for range l.Count() {
			if k < st.Depth() {
				walk(k+1, st.Child(k, id))
			} else {
				leaves = append(leaves, id)
			}
			next := ln[id].Next
			if next == None || ln[next].Prev != id {
				t.Fatalf("level %d ring broken at %d", k, id)
			}
			id = next
		}
		if l.Count() > 0 && id != l.Cursor() {
			t.Fatalf("level %d ring does not close in %d steps", k, l.Count())
		}
	}
	walk(0, st.Root())
	return leaves
}

// TestStackSharedLeaves: two stacks of different depths share one leaf
// table and one leaf Entity, as the engine's port stacks share the shard's
// flow tables. Leaves are activated on either, picked and drained, and
// moved from one to the other (SetFlowPort's move: deactivated on the old
// stack, activated on the new). After every operation both stacks' rings
// close and hold exactly their own leaves, an idle leaf's links are None,
// and the shared table is the one handed in: never reallocated.
func TestStackSharedLeaves(t *testing.T) {
	h2, c2 := newCountingHier(2)
	h1, c1 := newCountingHier(1)
	h1.leaf = h2.leaf
	table := h2.leaf.ln
	stacks := []*Stack{{}, {}}
	depths := []int{2, 1}
	stacks[0].Init(h2, c2)
	stacks[1].Init(h1, c1)
	for _, st := range stacks {
		st.ShareLeaves(table)
	}
	on := make([]int, len(table)) // the stack a leaf is active on, or -1
	for f := range on {
		on[f] = -1
	}
	rng := rand.New(rand.NewSource(44))
	var pb [2]int32
	moves, picks := 0, 0
	for step := 0; step < 5000; step++ {
		f, s := int32(rng.Intn(len(table))), rng.Intn(2)
		switch op := rng.Intn(4); {
		case op == 0 && on[f] < 0:
			stacks[s].Activate(f, pathOf(depths[s], f, pb[:0]))
			on[f] = s
		case op == 1 && on[f] >= 0:
			from, to := on[f], 1-on[f]
			stacks[from].Deactivate(f, pathOf(depths[from], f, pb[:0]))
			stacks[to].Activate(f, pathOf(depths[to], f, pb[:0]))
			on[f] = to
			moves++
		case op >= 2:
			got, debit, ok := stacks[s].Pick()
			if !ok {
				if slices.Contains(on, s) {
					t.Fatalf("step %d: stack %d found empty with leaves active on it", step, s)
				}
				break
			}
			if on[got] != s {
				t.Fatalf("step %d: stack %d served leaf %d, which is active on %d", step, s, got, on[got])
			}
			picks++
			h2.leaf.deficit[got] -= debit
			stacks[s].Charge(pathOf(depths[s], got, pb[:0]), debit)
			if rng.Intn(3) == 0 {
				stacks[s].Deactivate(got, pathOf(depths[s], got, pb[:0]))
				on[got] = -1
			}
		}
		for s, st := range stacks {
			if ln := st.Links(st.Depth()); len(ln) != len(table) || &ln[0] != &table[0] {
				t.Fatalf("step %d: stack %d's leaf table is not the shared one", step, s)
			}
			leaves := ringLeaves(t, st)
			for _, f := range leaves {
				if on[f] != s {
					t.Fatalf("step %d: leaf %d is linked on stack %d, active on %d", step, f, s, on[f])
				}
			}
			want := 0
			for _, o := range on {
				if o == s {
					want++
				}
			}
			if len(leaves) != want {
				t.Fatalf("step %d: stack %d links %d leaves, %d are active on it", step, s, len(leaves), want)
			}
		}
		for f, o := range on {
			if o < 0 && table[f] != (Link{None, None}) {
				t.Fatalf("step %d: idle leaf %d keeps links %+v", step, f, table[f])
			}
		}
	}
	if moves < 200 || picks < 1000 {
		t.Fatalf("only %d moves and %d picks", moves, picks)
	}
}

// TestStackOwnLeaves: a Stack handed no table (bench/replay.go's) grows
// its own on Activate, past leaf ids of 32767 and more, and schedules
// exactly as a Stack sharing a table does: the same script gives the same
// picks and debits, and every link agrees, at every level.
func TestStackOwnLeaves(t *testing.T) {
	const space = 1 << 17
	ids := []int32{0, 1, 6, 32766, 32767, 32768, 40001, 65535, 65536, 99999, space - 1}
	build := func() (*Stack, *countingHier) {
		h, counts := newCountingHier(2)
		h.leaf = newEnt(space)
		st := &Stack{}
		st.Init(h, counts)
		return st, h
	}
	own, ho := build()
	shared, hs := build()
	shared.ShareLeaves(hs.leaf.ln)
	both := []*Stack{own, shared}
	active := make([]bool, len(ids))
	rng := rand.New(rand.NewSource(45))
	var pb [2]int32
	picks := 0
	for step := 0; step < 5000; step++ {
		i := rng.Intn(len(ids))
		f := ids[i]
		switch op := rng.Intn(4); {
		case op == 0 && !active[i]:
			for _, st := range both {
				st.Activate(f, pathOf(2, f, pb[:0]))
			}
			active[i] = true
		case op == 1 && active[i]:
			for _, st := range both {
				st.Deactivate(f, pathOf(2, f, pb[:0]))
			}
			active[i] = false
		case op >= 2:
			fo, do, oko := own.Pick()
			fs, ds, oks := shared.Pick()
			if fo != fs || do != ds || oko != oks {
				t.Fatalf("step %d: own table picked (%d, %d, %v), shared (%d, %d, %v)", step, fo, do, oko, fs, ds, oks)
			}
			if !oko {
				break
			}
			picks++
			head := 1 + rng.Int63n(300)
			for _, h := range []*countingHier{ho, hs} {
				h.leaf.deficit[fo] -= do
				h.leaf.head[fo] = head
			}
			drain := rng.Intn(3) == 0
			for _, st := range both {
				st.Charge(pathOf(2, fo, pb[:0]), do)
				if drain {
					st.Deactivate(fo, pathOf(2, fo, pb[:0]))
				}
			}
			if drain {
				active[slices.Index(ids, fo)] = false
			}
		}
		for k := range 2 {
			if !slices.Equal(own.Links(k), shared.Links(k)) {
				t.Fatalf("step %d: level %d links differ", step, k)
			}
		}
		ln := own.Links(2)
		for _, f := range ids {
			got := Link{None, None}
			if int(f) < len(ln) {
				got = ln[f]
			}
			if got != hs.leaf.ln[f] {
				t.Fatalf("step %d: leaf %d's links are %+v in the own table, %+v in the shared one", step, f, got, hs.leaf.ln[f])
			}
		}
	}
	if len(own.Links(2)) <= 32767 || picks < 1000 {
		t.Fatalf("own table of %d entries after %d picks", len(own.Links(2)), picks)
	}
	if a, b := ringLeaves(t, own), ringLeaves(t, shared); !slices.Equal(a, b) {
		t.Fatalf("own table links %v, shared %v", a, b)
	}
}
