package ddr

import (
	"math"
	"testing"
	"testing/quick"
)

const probeDecisions = 400_000

var table1Banks = []int{1, 4, 8, 12, 16}

// paperLoss holds the published Table 1 values, keyed by
// scheduler/penalty-model, indexed by table1Banks position.

var paperLoss = map[string][]float64{
	"fcfs/conf":    {0.750, 0.522, 0.384, 0.305, 0.253},
	"fcfs/rw":      {0.750, 0.500, 0.390, 0.347, 0.317},
	"reorder/conf": {0.750, 0.260, 0.046, 0.012, 0.003},
	"reorder/rw":   {0.750, 0.331, 0.199, 0.159, 0.139},
}

func runLoss(t *testing.T, banks int, sched SchedulerKind, rw bool) float64 {
	t.Helper()
	r, err := RunSaturated(Config{Banks: banks, Scheduler: sched, RWInterleave: rw}, 12345, probeDecisions)
	if err != nil {
		t.Fatal(err)
	}
	return r.Loss
}

// TestTable1ConflictColumns checks the bank-conflict-only columns against the
// paper within a tight tolerance: the conflict mechanism is fully specified
// by the paper (40 ns access cycle, 160 ns precharge, last-3 history), so we
// should — and do — reproduce it almost exactly.
func TestTable1ConflictColumns(t *testing.T) {
	for i, b := range table1Banks {
		got := runLoss(t, b, FCFSRoundRobin, false)
		want := paperLoss["fcfs/conf"][i]
		if math.Abs(got-want) > 0.01 {
			t.Errorf("fcfs conflicts banks=%d: loss %.3f, paper %.3f", b, got, want)
		}
		got = runLoss(t, b, Reorder, false)
		want = paperLoss["reorder/conf"][i]
		if math.Abs(got-want) > 0.01 {
			t.Errorf("reorder conflicts banks=%d: loss %.3f, paper %.3f", b, got, want)
		}
	}
}

// TestTable1RWColumns checks the read/write-interleaving columns with a wider
// tolerance: the paper's footnote pins the penalty (write delayed after read)
// but not its sub-slot rounding, so we accept a 0.06 band and additionally
// assert the qualitative claims hold (see below).
func TestTable1RWColumns(t *testing.T) {
	for i, b := range table1Banks {
		got := runLoss(t, b, FCFSRoundRobin, true)
		want := paperLoss["fcfs/rw"][i]
		if math.Abs(got-want) > 0.06 {
			t.Errorf("fcfs rw banks=%d: loss %.3f, paper %.3f", b, got, want)
		}
		got = runLoss(t, b, Reorder, true)
		want = paperLoss["reorder/rw"][i]
		if math.Abs(got-want) > 0.06 {
			t.Errorf("reorder rw banks=%d: loss %.3f, paper %.3f", b, got, want)
		}
	}
}

// TestPaperHeadlineClaim asserts Section 3's summary sentence: "Assuming 8
// banks per device, this very simple optimization scheme reduces the
// throughput loss by 50% in comparison with the not-optimized one."
func TestPaperHeadlineClaim(t *testing.T) {
	noOpt := runLoss(t, 8, FCFSRoundRobin, true)
	opt := runLoss(t, 8, Reorder, true)
	reduction := (noOpt - opt) / noOpt
	if reduction < 0.40 || reduction > 0.70 {
		t.Fatalf("8-bank loss reduction = %.0f%%, paper claims ~50%%", reduction*100)
	}
}

// TestOneBankExact: with a single bank every access waits out the full
// precharge window, so utilization is exactly 40/160 regardless of scheduler,
// penalty or seed.
func TestOneBankExact(t *testing.T) {
	for _, sched := range []SchedulerKind{FCFSRoundRobin, Reorder} {
		for _, rw := range []bool{false, true} {
			for _, seed := range []uint64{1, 99} {
				r, err := RunSaturated(Config{Banks: 1, Scheduler: sched, RWInterleave: rw}, seed, 50_000)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(r.Loss-0.75) > 1e-3 {
					t.Fatalf("%v rw=%v seed=%d: loss = %.4f, want 0.7500", sched, rw, seed, r.Loss)
				}
			}
		}
	}
}

// TestMonotonicInBanks: more banks means fewer conflicts for every scheduler.
func TestMonotonicInBanks(t *testing.T) {
	for _, sched := range []SchedulerKind{FCFSRoundRobin, Reorder} {
		prev := 2.0
		for _, b := range table1Banks {
			l := runLoss(t, b, sched, false)
			if l > prev+0.005 {
				t.Fatalf("%v: loss increased from %.3f to %.3f at banks=%d", sched, prev, l, b)
			}
			prev = l
		}
	}
}

// TestOptimizerNeverWorse: the reordering scheduler must never lose more
// than FCFS for the same configuration.
func TestOptimizerNeverWorse(t *testing.T) {
	for _, b := range table1Banks {
		for _, rw := range []bool{false, true} {
			fcfs := runLoss(t, b, FCFSRoundRobin, rw)
			reorder := runLoss(t, b, Reorder, rw)
			if reorder > fcfs+0.005 {
				t.Fatalf("banks=%d rw=%v: reorder loss %.3f > fcfs loss %.3f", b, rw, reorder, fcfs)
			}
		}
	}
}

// TestAccountingInvariant: in a saturated run every half-slot is either a
// data transfer, a conflict stall or a turnaround stall.
func TestAccountingInvariant(t *testing.T) {
	cfgs := []Config{
		{Banks: 4, Scheduler: FCFSRoundRobin},
		{Banks: 8, Scheduler: FCFSRoundRobin, RWInterleave: true},
		{Banks: 8, Scheduler: Reorder},
		{Banks: 16, Scheduler: Reorder, RWInterleave: true},
	}
	for _, cfg := range cfgs {
		r, err := RunSaturated(cfg, 7, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		sum := r.Issued*AccessHalfSlots + r.ConflictStalls + r.TurnaroundStalls
		if sum != r.ElapsedHalfSlots {
			t.Fatalf("%+v: %d issued-slots + %d conflict + %d turnaround != %d elapsed",
				cfg, r.Issued*AccessHalfSlots, r.ConflictStalls, r.TurnaroundStalls, r.ElapsedHalfSlots)
		}
	}
}

// TestAccountingProperty fuzzes configurations and checks loss bounds and the
// accounting invariant.
func TestAccountingProperty(t *testing.T) {
	err := quick.Check(func(banksRaw, seedRaw uint8, sched, rw bool) bool {
		banks := int(banksRaw%16) + 1
		cfg := Config{Banks: banks, RWInterleave: rw}
		if sched {
			cfg.Scheduler = Reorder
		}
		r, err := RunSaturated(cfg, uint64(seedRaw)+1, 20_000)
		if err != nil {
			return false
		}
		if r.Loss < -1e-9 || r.Loss > 0.7501 {
			return false
		}
		return r.Issued*AccessHalfSlots+r.ConflictStalls+r.TurnaroundStalls == r.ElapsedHalfSlots
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistinctBanksPipelinePerfectly: a request stream that never reuses a
// bank within the precharge window has zero conflict loss.
func TestDistinctBanksPipelinePerfectly(t *testing.T) {
	c, err := NewController(Config{Banks: 8, Scheduler: FCFSRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	// All writes, striped across banks: no conflicts, no turnarounds.
	bank := 0
	for i := 0; i < 400; i++ {
		c.Offer(Request{Port: NetWrite, Op: Write, Bank: bank})
		bank = (bank + 1) % 8
	}
	for c.Pending() > 0 {
		c.Step()
	}
	r := c.Result()
	if r.Loss > 1e-9 {
		t.Fatalf("striped banks should have zero loss, got %.4f (%+v)", r.Loss, r)
	}
}

// TestTurnaroundAccountedOnce: a single read followed by a single write to
// different banks pays exactly one turnaround half-slot.
func TestTurnaroundAccountedOnce(t *testing.T) {
	c, err := NewController(Config{Banks: 4, Scheduler: FCFSRoundRobin, RWInterleave: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Offer(Request{Port: NetRead, Op: Read, Bank: 0})
	c.Offer(Request{Port: NetWrite, Op: Write, Bank: 1})
	// FCFS serves ports in paper order: NetWrite first, then NetRead — so
	// to force read-then-write use ports whose order matches.
	for c.Pending() > 0 {
		c.Step()
	}
	r := c.Result()
	if r.Issued != 2 {
		t.Fatalf("issued = %d, want 2", r.Issued)
	}
	// The write is served first (port order), then the read: no turnaround.
	if r.TurnaroundStalls != 0 {
		t.Fatalf("unexpected turnaround stalls: %+v", r)
	}

	// Now force read first via CPU ports (later in the order).
	c2, _ := NewController(Config{Banks: 4, Scheduler: FCFSRoundRobin, RWInterleave: true})
	c2.Offer(Request{Port: NetRead, Op: Read, Bank: 0})
	c2.Offer(Request{Port: CPUWrite, Op: Write, Bank: 1})
	for c2.Pending() > 0 {
		c2.Step()
	}
	r2 := c2.Result()
	if r2.TurnaroundStalls != TurnaroundHalfSlots {
		t.Fatalf("turnaround stalls = %d, want %d (%+v)", r2.TurnaroundStalls, TurnaroundHalfSlots, r2)
	}
}

// TestSameBankSerializes: hammering one bank of many still gives 0.25
// utilization.
func TestSameBankSerializes(t *testing.T) {
	c, err := NewController(Config{Banks: 8, Scheduler: Reorder})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Offer(Request{Port: NetWrite, Op: Write, Bank: 3})
	}
	for c.Pending() > 0 {
		c.Step()
	}
	r := c.Result()
	if math.Abs(r.Utilization-0.25) > 0.01 {
		t.Fatalf("single-bank utilization = %.3f, want 0.25", r.Utilization)
	}
}

// TestLookAheadAblation: letting the reorder scheduler search deeper than
// the FIFO head must not increase loss, and at few banks should reduce it.
func TestLookAheadAblation(t *testing.T) {
	head, err := RunSaturated(Config{Banks: 4, Scheduler: Reorder}, 5, probeDecisions)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := RunSaturated(Config{Banks: 4, Scheduler: Reorder, LookAhead: 8}, 5, probeDecisions)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Loss > head.Loss+0.005 {
		t.Fatalf("lookahead 8 loss %.3f > head-only loss %.3f", deep.Loss, head.Loss)
	}
	if head.Loss-deep.Loss < 0.02 {
		t.Fatalf("lookahead should visibly help at 4 banks: head %.3f deep %.3f", head.Loss, deep.Loss)
	}
}

// TestDeterminism: identical seeds give identical results.
func TestDeterminism(t *testing.T) {
	cfg := Config{Banks: 8, Scheduler: Reorder, RWInterleave: true}
	a, _ := RunSaturated(cfg, 42, 50_000)
	b, _ := RunSaturated(cfg, 42, 50_000)
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewController(Config{Banks: 0}); err == nil {
		t.Fatal("expected error for zero banks")
	}
	if _, err := RunSaturated(Config{Banks: -1}, 1, 10); err == nil {
		t.Fatal("expected error for negative banks")
	}
	c, _ := NewController(Config{Banks: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bank")
		}
	}()
	c.Offer(Request{Bank: 5})
}

func TestGoodput(t *testing.T) {
	r := Result{Utilization: 0.5}
	if g := r.GoodputGbps(); math.Abs(g-6.4) > 1e-9 {
		t.Fatalf("goodput = %v, want 6.4", g)
	}
}

func TestSchedulerKindString(t *testing.T) {
	if FCFSRoundRobin.String() != "fcfs-round-robin" || Reorder.String() != "reorder" {
		t.Fatal("SchedulerKind.String broken")
	}
	if SchedulerKind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func TestNowNs(t *testing.T) {
	c, _ := NewController(Config{Banks: 2})
	c.Offer(Request{Port: NetWrite, Op: Write, Bank: 0})
	c.Step()
	if c.NowNs() != 40 {
		t.Fatalf("NowNs = %v, want 40 after one access", c.NowNs())
	}
}

func BenchmarkRunSaturatedFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = RunSaturated(Config{Banks: 8, Scheduler: FCFSRoundRobin, RWInterleave: true}, 1, 10_000)
	}
}

func BenchmarkRunSaturatedReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = RunSaturated(Config{Banks: 8, Scheduler: Reorder, RWInterleave: true}, 1, 10_000)
	}
}
