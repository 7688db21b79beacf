package npu

import (
	"math"
	"testing"
)

// TestTable3MatchesPaper verifies every cell of Table 3.
func TestTable3MatchesPaper(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	check := func(name string, got, want int) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d cycles, paper says %d", name, got, want)
		}
	}
	check("Dequeue Free List (enqueue op)", rows[0].Enqueue, 34)
	check("Enqueue Free List (dequeue op)", rows[0].Dequeue, 42)
	check("Enqueue Segment first", rows[1].Enqueue, 46)
	check("Enqueue Segment rest", rows[1].EnqueueR, 68)
	check("Dequeue Segment", rows[1].Dequeue, 52)
	check("Copy (enqueue)", rows[2].Enqueue, 136)
	check("Copy (dequeue)", rows[2].Dequeue, 136)
	check("Total enqueue first", rows[3].Enqueue, 216)
	check("Total enqueue rest", rows[3].EnqueueR, 238)
	check("Total dequeue", rows[3].Dequeue, 230)
}

// TestLineTransactionTotals reproduces the Section 5.3 arithmetic. The paper
// states the line-transaction enqueue/dequeue totals as 128 and 118; from
// its own Table 3 rows the sums are 34+68+24 = 126 and 42+52+24 = 118 — the
// dequeue matches exactly and the enqueue has a 2-cycle discrepancy in the
// paper's text, which we flag in EXPERIMENTS.md and bound here.
func TestLineTransactionTotals(t *testing.T) {
	enq := EnqueueCost(false, LineCopy).CPUCycles()
	deq := DequeueCost(LineCopy).CPUCycles()
	if deq != 118 {
		t.Errorf("line-copy dequeue = %d, paper says 118", deq)
	}
	if enq < 126 || enq > 128 {
		t.Errorf("line-copy enqueue = %d, paper's decomposition gives 126 (text says 128)", enq)
	}
}

// TestDMACosts: DMA setup is 16 CPU cycles, the transfer 34 bus cycles, and
// the wall time per operation is approximately the line-transaction time
// ("the total time per operation is approximately the same as before").
func TestDMACosts(t *testing.T) {
	cpu, wall := CopyCost(DMACopy)
	if cpu != 16 {
		t.Fatalf("DMA setup = %d, paper says 16", cpu)
	}
	if wall != 50 {
		t.Fatalf("DMA wall = %d, paper says >= 16+34", wall)
	}
	lineWall := EnqueueCost(true, LineCopy).WallCycles()
	dmaWall := EnqueueCost(true, DMACopy).WallCycles()
	if math.Abs(float64(dmaWall-lineWall)) > 30 {
		t.Fatalf("DMA wall %d vs line wall %d: should be comparable", dmaWall, lineWall)
	}
	// But the CPU is substantially freed.
	if EnqueueCost(true, DMACopy).CPUCycles() >= EnqueueCost(true, WordCopy).CPUCycles() {
		t.Fatal("DMA does not offload the CPU")
	}
}

// TestBaselineSupportsFullDuplex100M: Section 5.3's headline — at 100 MHz
// the word-copy implementation consumes essentially the whole CPU to carry
// a full-duplex 100 Mbps link (one 64-byte packet in + one out per 5.12us,
// costing 446 of the 512 available cycles).
func TestBaselineSupportsFullDuplex100M(t *testing.T) {
	mbps := TransitMbps(WordCopy, ClockMHz)
	if mbps < 100 || mbps > 130 {
		t.Fatalf("baseline transit = %.0f Mbps, paper implies ~100-115", mbps)
	}
}

// TestLineCopyReaches200M: "the 100MHz PowerPC would sustain up to about
// 200 Mbps throughput" with line transactions.
func TestLineCopyReaches200M(t *testing.T) {
	mbps := TransitMbps(LineCopy, ClockMHz)
	if mbps < 190 || mbps > 240 {
		t.Fatalf("line-copy transit = %.0f Mbps, paper says about 200", mbps)
	}
}

// TestDMADoesNotRaiseThroughputButFreesCPU: "the overall throughput does not
// increase significantly, but ... the processor has additional available
// processing power".
func TestDMADoesNotRaiseThroughputButFreesCPU(t *testing.T) {
	line := TransitMbps(LineCopy, ClockMHz)
	dma := TransitMbps(DMACopy, ClockMHz)
	if dma < line*0.9 {
		t.Fatalf("DMA transit %.0f far below line %.0f", dma, line)
	}
}

// TestFrequencyRuleOfThumb: Section 5.4 — supported bandwidth scales with
// clock frequency, but a 400 MHz core gains nothing because the PLB caps
// at 200 MHz.
func TestFrequencyRuleOfThumb(t *testing.T) {
	at100 := ScaledTransitMbps(WordCopy, 100)
	at200 := ScaledTransitMbps(WordCopy, 200)
	at400 := ScaledTransitMbps(WordCopy, 400)
	if math.Abs(at200/at100-2) > 0.01 {
		t.Fatalf("200 MHz should double 100 MHz: %v vs %v", at200, at100)
	}
	if at400 != at200 {
		t.Fatalf("400 MHz should be bus-capped at the 200 MHz rate: %v vs %v", at400, at200)
	}
}

// TestSoftwareFarBelowMMS: the paper's central comparison — the software
// approach is an order of magnitude below the hardware MMS's ~6.1 Gbps.
func TestSoftwareFarBelowMMS(t *testing.T) {
	best := ScaledTransitMbps(LineCopy, 300) // generous: fastest core, best copy engine
	if best > 1000 {
		t.Fatalf("software model reaches %.0f Mbps; the paper's point is it stays sub-gigabit", best)
	}
}

func TestSubOpStructure(t *testing.T) {
	for _, op := range []SubOp{DequeueFreeList(), EnqueueFreeList(),
		EnqueueSegment(true), EnqueueSegment(false), DequeueSegment()} {
		if len(op.Steps) == 0 {
			t.Fatalf("%s: empty micro-program", op.Name)
		}
		sum := 0
		for _, st := range op.Steps {
			if st.Cycles <= 0 {
				t.Fatalf("%s: non-positive step %q", op.Name, st.Name)
			}
			sum += st.Cycles
		}
		if sum != op.Cycles() {
			t.Fatalf("%s: Cycles() inconsistent", op.Name)
		}
	}
}

func TestCopyEngineStrings(t *testing.T) {
	for _, e := range CopyEngines() {
		if e.String() == "" {
			t.Fatal("empty engine name")
		}
	}
	if CopyEngine(9).String() != "copy-engine(9)" {
		t.Fatal("unknown engine must render")
	}
}

func TestCopyCostPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CopyCost(CopyEngine(9))
}

func TestTransitMbpsPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransitMbps(WordCopy, 0)
}

func TestArchitectureMirrorsFigure1(t *testing.T) {
	comps := Architecture()
	if len(comps) < 10 {
		t.Fatalf("only %d components; Figure 1 has 11 blocks", len(comps))
	}
	names := map[string]bool{}
	for _, c := range comps {
		names[c.Name] = true
		if c.Role == "" {
			t.Errorf("%s has no role", c.Name)
		}
	}
	for _, want := range []string{"PowerPC 405", "ZBT SRAM", "DDR SDRAM", "Ethernet MAC (MII)"} {
		if !names[want] {
			t.Errorf("Figure 1 block %q missing", want)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Table3()
	}
}
