package sched

import (
	"math/rand"
	"testing"

	"npqm/internal/policy"
)

// peekStack is a Stack of the given depth (0 or 2) over eight leaves with
// every level running kind, random node and leaf weights and random head
// packet sizes, all drawn from seed.
func peekStack(kind policy.EgressKind, depth int, seed int64) (*Stack, *countingHier, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	h, counts := newCountingHier(depth)
	h.leafP = Params{Kind: kind, Quantum: 100}
	for k := range h.params {
		h.params[k] = Params{Kind: kind, Quantum: 100}
		for i := range h.weights[k] {
			h.weights[k][i] = 1 + rng.Int63n(3)
		}
	}
	for f := range h.leaf.weight {
		h.leaf.weight[f] = 1 + rng.Int63n(3)
		h.leaf.head[f] = 1 + rng.Int63n(300)
	}
	st := &Stack{}
	st.Init(h, counts)
	st.ShareLeaves(h.leaf.ln)
	return st, h, rng
}

// peekStep applies one random operation: activate an idle leaf, deactivate
// an active one, or pick and charge — and, one pick in three, drain the
// picked leaf as the engine does when its queue empties. It returns the
// pick's result (ok false when the operation was not a pick).
func peekStep(st *Stack, h *countingHier, depth int, rng *rand.Rand) (int32, bool) {
	var pb [2]int32
	f := int32(rng.Intn(len(h.leaf.ln)))
	switch op := rng.Intn(4); {
	case op == 0 && h.leaf.ln[f].Next == None:
		st.Activate(f, pathOf(depth, f, pb[:0]))
	case op == 1 && h.leaf.ln[f].Next != None:
		st.Deactivate(f, pathOf(depth, f, pb[:0]))
	case op >= 2:
		got, debit, ok := st.Pick()
		if !ok {
			return None, false
		}
		h.leaf.deficit[got] -= debit
		st.Charge(pathOf(depth, got, pb[:0]), debit)
		if rng.Intn(3) == 0 {
			st.Deactivate(got, pathOf(depth, got, pb[:0]))
		} else {
			h.leaf.head[got] = 1 + rng.Int63n(300)
		}
		return got, true
	}
	return None, false
}

// TestStackPeekIsNextPick: under RR, WRR and Prio, flat and at depth 2,
// Peek names exactly the leaf the next Pick serves, over random
// activate/pick/deactivate sequences.
func TestStackPeekIsNextPick(t *testing.T) {
	for _, kind := range []policy.EgressKind{policy.EgressRR, policy.EgressWRR, policy.EgressPrio} {
		for _, depth := range []int{0, 2} {
			st, h, rng := peekStack(kind, depth, int64(kind)*10+int64(depth))
			picks := 0
			for i := 0; i < 5000; i++ {
				want, wantOK := st.Peek()
				var pb [2]int32
				f := int32(rng.Intn(len(h.leaf.ln)))
				if rng.Intn(3) == 0 {
					// Membership changes: the next Peek must see them.
					if h.leaf.ln[f].Next == None {
						st.Activate(f, pathOf(depth, f, pb[:0]))
					} else {
						st.Deactivate(f, pathOf(depth, f, pb[:0]))
					}
					continue
				}
				got, _, ok := st.Pick()
				if ok != wantOK || got != want {
					t.Fatalf("%v depth %d step %d: Peek said %d (%v), Pick served %d (%v)", kind, depth, i, want, wantOK, got, ok)
				}
				if ok {
					picks++
					if rng.Intn(3) == 0 {
						st.Deactivate(got, pathOf(depth, got, pb[:0]))
					}
				}
			}
			if picks < 1000 {
				t.Fatalf("%v depth %d: only %d picks served", kind, depth, picks)
			}
		}
	}
}

// TestStackPeekDRROpenVisit: under DRR at every level, Peek names the
// member of the open visit, and when every visit on its path is open with
// credit enough for the head packet — so Pick banks nothing and moves on
// nowhere — Pick serves exactly that leaf.
func TestStackPeekDRROpenVisit(t *testing.T) {
	for _, depth := range []int{0, 2} {
		st, h, rng := peekStack(policy.EgressDRR, depth, int64(depth)+7)
		checked := 0
		for i := 0; i < 5000; i++ {
			p, ok := st.Peek()
			var pb [2]int32
			path := pathOf(depth, p, pb[:0])
			// covered: every visit on p's path is open, each with credit
			// for p's head packet.
			covered := ok
			l := st.Root()
			for k := 0; ok && k <= depth; k++ {
				id, credit := p, h.leaf.deficit[p]
				if k < depth {
					id, credit = path[k], st.NodeDeficit(k, path[k])
				}
				if l.Visiting() && l.Cursor() != id {
					t.Fatalf("depth %d step %d: level %d's visit is open on %d, Peek went through %d", depth, i, k, l.Cursor(), id)
				}
				covered = covered && l.Visiting() && credit >= h.leaf.head[p]
				if k < depth {
					l = st.Child(k, id)
				}
			}
			got, picked := peekStep(st, h, depth, rng)
			if covered && picked {
				checked++
				if got != p {
					t.Fatalf("depth %d step %d: every visit open and covered on %d, Pick served %d", depth, i, p, got)
				}
			}
		}
		if checked < 100 {
			t.Fatalf("depth %d: only %d covered picks checked", depth, checked)
		}
	}
}

// TestStackPeekChangesNothing: a Peek between any two operations leaves the
// Pick sequence exactly as it is without one, for every discipline, flat
// and at depth 2.
func TestStackPeekChangesNothing(t *testing.T) {
	for _, kind := range []policy.EgressKind{policy.EgressRR, policy.EgressWRR, policy.EgressPrio, policy.EgressDRR} {
		for _, depth := range []int{0, 2} {
			seed := int64(kind)*10 + int64(depth) + 100
			a, ha, ra := peekStack(kind, depth, seed)
			b, hb, rb := peekStack(kind, depth, seed)
			peeks := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				if peeks.Intn(2) == 0 {
					b.Peek()
				}
				fa, oka := peekStep(a, ha, depth, ra)
				fb, okb := peekStep(b, hb, depth, rb)
				if fa != fb || oka != okb {
					t.Fatalf("%v depth %d step %d: picked %d (%v) without peeks, %d (%v) with", kind, depth, i, fa, oka, fb, okb)
				}
			}
		}
	}
}
