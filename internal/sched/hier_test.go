package sched

import (
	"testing"

	"npqm/internal/policy"
)

// slot-backed Entity: the minimal dense storage a Level schedules over,
// with the members' link table beside it.
type testEnt struct {
	ln      []Link
	weight  []int64
	deficit []int64
	head    []int64 // head-packet bytes; -1 = no complete packet
	audit   []int64
}

func newEnt(n int) *testEnt {
	e := &testEnt{
		ln:      make([]Link, n),
		weight:  make([]int64, n),
		deficit: make([]int64, n),
		head:    make([]int64, n),
		audit:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		e.ln[i] = Link{None, None}
		e.weight[i] = 1
		e.head[i] = 100
	}
	return e
}

func (e *testEnt) Weight(id int32) int64        { return e.weight[id] }
func (e *testEnt) Deficit(id int32) int64       { return e.deficit[id] }
func (e *testEnt) SetDeficit(id int32, d int64) { e.deficit[id] = d }
func (e *testEnt) HeadBytes(id int32) (int64, bool) {
	if e.head[id] < 0 {
		return 0, false
	}
	return e.head[id], true
}
func (e *testEnt) Audit(id int32, delta int64) { e.audit[id] += delta }

func rrParams() Params   { return Params{Kind: policy.EgressRR} }
func prioParams() Params { return Params{Kind: policy.EgressPrio} }
func wrrParams() Params  { return Params{Kind: policy.EgressWRR} }
func drrParams(q int64) Params {
	return Params{Kind: policy.EgressDRR, Quantum: q}
}

func TestLevelRRRotation(t *testing.T) {
	e := newEnt(8)
	var l Level
	for _, id := range []int32{3, 1, 5} {
		l.Activate(e.ln, id)
	}
	if l.Count() != 3 {
		t.Fatalf("count %d, want 3", l.Count())
	}
	// Activation order is rotation order: each new member joins at the
	// tail of the cycle.
	want := []int32{3, 1, 5, 3, 1, 5}
	for i, w := range want {
		id, debit, ok := l.Pick(rrParams(), e.ln, e)
		if !ok || id != w || debit != 0 {
			t.Fatalf("pick %d = (%d, %d, %v), want (%d, 0, true)", i, id, debit, ok, w)
		}
	}
	// A member activated mid-cycle waits a full rotation like any other.
	l.Activate(e.ln, 7)
	got := []int32{}
	for i := 0; i < 4; i++ {
		id, _, _ := l.Pick(rrParams(), e.ln, e)
		got = append(got, id)
	}
	if got[3] != 7 {
		t.Fatalf("rotation after mid-cycle activate = %v, want member 7 last", got)
	}
}

func TestLevelDeactivateResetsLinks(t *testing.T) {
	e := newEnt(4)
	var l Level
	for id := int32(0); id < 4; id++ {
		l.Activate(e.ln, id)
	}
	l.Deactivate(rrParams(), e.ln, e, 2)
	if e.ln[2] != (Link{None, None}) {
		t.Fatalf("deactivated member keeps links %+v", e.ln[2])
	}
	seen := map[int32]bool{}
	for i := 0; i < 3; i++ {
		id, _, _ := l.Pick(rrParams(), e.ln, e)
		seen[id] = true
	}
	if seen[2] || len(seen) != 3 {
		t.Fatalf("rotation after deactivate visits %v", seen)
	}
	for id := int32(0); id < 4; id++ {
		if id != 2 {
			l.Deactivate(rrParams(), e.ln, e, id)
		}
	}
	if l.Count() != 0 {
		t.Fatalf("count %d after deactivating all, want 0", l.Count())
	}
	if _, _, ok := l.Pick(rrParams(), e.ln, e); ok {
		t.Fatal("pick succeeded on an empty level")
	}
}

func TestLevelPrioServesMinimum(t *testing.T) {
	e := newEnt(16)
	var l Level
	for _, id := range []int32{9, 4, 12} {
		l.Activate(e.ln, id)
	}
	if id, _, _ := l.Pick(prioParams(), e.ln, e); id != 4 {
		t.Fatalf("prio pick %d, want 4", id)
	}
	// Activating a lower id retargets the cached minimum O(1).
	l.Activate(e.ln, 2)
	if id, _, _ := l.Pick(prioParams(), e.ln, e); id != 2 {
		t.Fatalf("prio pick %d after activating 2, want 2", id)
	}
	// Deactivating the minimum invalidates the cache; the rescan must
	// find the next-lowest.
	l.Deactivate(prioParams(), e.ln, e, 2)
	if id, _, _ := l.Pick(prioParams(), e.ln, e); id != 4 {
		t.Fatalf("prio pick %d after draining the minimum, want 4", id)
	}
}

func TestLevelWRRWeights(t *testing.T) {
	e := newEnt(4)
	e.weight[1] = 3
	p := Params{Kind: policy.EgressWRR, Audit: true}
	var l Level
	l.Activate(e.ln, 1)
	l.Activate(e.ln, 2)
	counts := map[int32]int{}
	for i := 0; i < 8; i++ { // two full cycles of 3+1
		id, _, _ := l.Pick(p, e.ln, e)
		counts[id]++
	}
	if counts[1] != 6 || counts[2] != 2 {
		t.Fatalf("WRR served %v over two cycles, want 3:1", counts)
	}
	// Audit accumulated the granted visit packets exactly.
	if e.audit[1] != 6 || e.audit[2] != 2 {
		t.Fatalf("WRR audit %v/%v, want 6/2", e.audit[1], e.audit[2])
	}
}

func TestLevelWRRMidVisitDeactivateRefundsCredit(t *testing.T) {
	e := newEnt(4)
	e.weight[1] = 4
	p := Params{Kind: policy.EgressWRR, Audit: true}
	var l Level
	l.Activate(e.ln, 1)
	l.Activate(e.ln, 2)
	if id, _, _ := l.Pick(p, e.ln, e); id != 1 {
		t.Fatal("first pick should open member 1's visit")
	}
	// Member 1 drains after one of its four packets: the three unused
	// credits must be refunded from the audit and the next pick moves on.
	l.Deactivate(p, e.ln, e, 1)
	if e.audit[1] != 1 {
		t.Fatalf("audit %d after mid-visit drain, want 1 (refund)", e.audit[1])
	}
	if l.Visiting() {
		t.Fatal("visit survived its member's deactivation")
	}
	if id, _, _ := l.Pick(p, e.ln, e); id != 2 {
		t.Fatal("rotation did not move on after mid-visit drain")
	}
}

func TestLevelDRRByteFairness(t *testing.T) {
	e := newEnt(4)
	e.weight[2] = 2
	e.head[1] = 300
	e.head[2] = 300
	p := Params{Kind: policy.EgressDRR, Quantum: 100, Audit: true}
	var l Level
	l.Activate(e.ln, 1)
	l.Activate(e.ln, 2)
	served := map[int32]int64{}
	for i := 0; i < 90; i++ {
		id, debit, ok := l.Pick(p, e.ln, e)
		if !ok {
			t.Fatal("pick failed with members active")
		}
		if debit != 300 {
			t.Fatalf("debit %d, want the 300-byte head", debit)
		}
		served[id] += debit
		e.SetDeficit(id, e.Deficit(id)-debit) // the caller's charge
	}
	// Weight 2 earns twice the bytes of weight 1 (±1 packet of slack).
	ratio := float64(served[2]) / float64(served[1])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("DRR byte ratio %.2f (%v), want ~2.0", ratio, served)
	}
	// Conservation: served ≡ granted − outstanding deficit, per member.
	for _, id := range []int32{1, 2} {
		if want := e.audit[id] - e.deficit[id]; served[id] != want {
			t.Fatalf("member %d served %d, granted−outstanding = %d", id, served[id], want)
		}
	}
}

func TestLevelDRRFallbackBound(t *testing.T) {
	e := newEnt(2)
	e.head[0] = 1 << 40 // unreachable by any sane quantum banking
	var l Level
	l.Activate(e.ln, 0)
	id, debit, ok := l.Pick(drrParams(1), e.ln, e)
	if !ok || id != 0 {
		t.Fatalf("work conservation violated: pick = (%d, %v)", id, ok)
	}
	// The fallback still prices the packet so the caller's charge drives
	// the deficit negative instead of serving for free.
	if debit != 1<<40 {
		t.Fatalf("fallback debit %d, want the head bytes", debit)
	}
}

func TestLevelPeekDoesNotAdvance(t *testing.T) {
	e := newEnt(4)
	var l Level
	l.Activate(e.ln, 1)
	l.Activate(e.ln, 2)
	for i := 0; i < 3; i++ {
		p, ok := l.Peek(rrParams(), e.ln)
		if !ok || p != 1 {
			t.Fatalf("peek %d = (%d, %v), want (1, true)", i, p, ok)
		}
	}
	if id, _, _ := l.Pick(rrParams(), e.ln, e); id != 1 {
		t.Fatal("pick after peek should serve the peeked member")
	}
}

// TestLevelDRRBankingBoundIn64Bits: the banking loop's bound is
// count×2048, which passes 2^31 at 2^20 members. Counted in a 32-bit int it
// wrapped negative, the loop never ran, and the first member was served on
// its first quantum (64 B of deficit for a 1500 B packet). Counted in 64
// bits, banking runs its 24 rotations and the first packet is covered.
func TestLevelDRRBankingBoundIn64Bits(t *testing.T) {
	const n = 1 << 20
	e := newEnt(n)
	for i := range e.head {
		e.head[i] = 1500
	}
	var l Level
	for id := int32(0); id < n; id++ {
		l.Activate(e.ln, id)
	}
	id, debit, ok := l.Pick(drrParams(64), e.ln, e)
	if !ok || id != 0 || debit != 1500 {
		t.Fatalf("pick = (%d, %d, %v), want (0, 1500, true)", id, debit, ok)
	}
	if d := e.deficit[0]; d < debit {
		t.Fatalf("member 0 served a %d B packet on %d B of deficit: the banking loop did not run", debit, d)
	}
}
