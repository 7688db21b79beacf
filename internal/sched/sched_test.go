package sched

import (
	"testing"
)

// queues drives one Level the way the engine drives it: queue q is a member
// exactly while it has backlog, a served packet's debit is charged to the
// member's deficit, and a queue that drains is deactivated. The discipline
// tests below state their expectations in queue depths and service order.
type queues struct {
	e     *testEnt
	l     Level
	p     Params
	depth []int
}

// newQueues activates, in index order, every queue with backlog.
func newQueues(p Params, depths []int) *queues {
	qs := &queues{e: newEnt(len(depths)), p: p, depth: depths}
	for q, d := range depths {
		if d > 0 {
			qs.l.Activate(qs.e.ln, int32(q))
		}
	}
	return qs
}

// serve transmits one packet from the queue the discipline picks; ok is
// false when every queue is empty.
func (qs *queues) serve(t *testing.T) (int, bool) {
	t.Helper()
	id, debit, ok := qs.l.Pick(qs.p, qs.e.ln, qs.e)
	if !ok {
		return 0, false
	}
	if qs.depth[id] <= 0 {
		t.Fatalf("discipline served empty queue %d (%v)", id, qs.depth)
	}
	qs.e.SetDeficit(id, qs.e.Deficit(id)-debit)
	if qs.depth[id]--; qs.depth[id] == 0 {
		qs.l.Deactivate(qs.p, qs.e.ln, qs.e, id)
	}
	return int(id), true
}

func (qs *queues) drain(t *testing.T) []int {
	t.Helper()
	var order []int
	for i := 0; i < 10000; i++ {
		q, ok := qs.serve(t)
		if !ok {
			return order
		}
		order = append(order, q)
	}
	t.Fatal("discipline did not drain")
	return nil
}

func TestRoundRobinFairness(t *testing.T) {
	order := newQueues(rrParams(), []int{3, 3, 3}).drain(t)
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestRoundRobinSkipsEmpty(t *testing.T) {
	order := newQueues(rrParams(), []int{0, 2, 0, 2}).drain(t)
	if len(order) != 4 {
		t.Fatalf("drained %d packets, want 4: %v", len(order), order)
	}
	for _, q := range order {
		if q == 0 || q == 2 {
			t.Fatalf("served empty queue: %v", order)
		}
	}
}

func TestStrictPriorityOrder(t *testing.T) {
	order := newQueues(prioParams(), []int{2, 2, 2}).drain(t)
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestStrictPriorityStarvation(t *testing.T) {
	// Strict priority intentionally starves low classes while the high
	// class is backlogged.
	qs := newQueues(prioParams(), []int{1000, 1})
	for i := 0; i < 1000; i++ {
		if q, ok := qs.serve(t); !ok || q != 0 {
			t.Fatalf("iteration %d: served %d", i, q)
		}
	}
	if q, ok := qs.serve(t); !ok || q != 1 {
		t.Fatal("low class never served after drain")
	}
}

func TestWRRProportions(t *testing.T) {
	qs := newQueues(wrrParams(), []int{100000, 100000})
	qs.e.weight[0] = 3
	counts := [2]int{}
	for i := 0; i < 4000; i++ {
		q, ok := qs.serve(t)
		if !ok {
			t.Fatal("backlogged WRR returned empty")
		}
		counts[q]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("WRR 3:1 served %v (ratio %.2f)", counts, ratio)
	}
}

func TestWRRSkipsEmptyAndRecovers(t *testing.T) {
	qs := newQueues(wrrParams(), []int{1, 4})
	qs.e.weight[0], qs.e.weight[1] = 2, 2
	if total := len(qs.drain(t)); total != 5 {
		t.Fatalf("drained %d packets, want 5", total)
	}
}

func TestWRRAllEmpty(t *testing.T) {
	if _, ok := newQueues(wrrParams(), []int{0, 0}).serve(t); ok {
		t.Fatal("empty WRR returned a queue")
	}
}

func TestDRRByteFairness(t *testing.T) {
	// Queue 0 sends 1500-byte packets, queue 1 sends 64-byte packets.
	// With equal quanta DRR should give both roughly equal BYTE shares,
	// i.e. queue 1 sends ~23x more packets.
	qs := newQueues(drrParams(1500), []int{1 << 20, 1 << 20})
	qs.e.head[0], qs.e.head[1] = 1500, 64
	bytes := [2]int64{}
	for i := 0; i < 20000; i++ {
		q, ok := qs.serve(t)
		if !ok {
			t.Fatal("backlogged DRR returned empty")
		}
		bytes[q] += qs.e.head[q]
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.85 || ratio > 1.18 {
		t.Fatalf("DRR byte shares %v (ratio %.2f), want ~1", bytes, ratio)
	}
}

func TestDRRDrains(t *testing.T) {
	qs := newQueues(drrParams(100), []int{3, 2})
	qs.e.head[0], qs.e.head[1] = 64, 64
	if served := len(qs.drain(t)); served != 5 {
		t.Fatalf("served %d, want 5", served)
	}
}
