package ixp

import (
	"math"
	"testing"
)

// paper Table 2, in Kpps.
var paperTable2 = []struct {
	queues int
	oneME  float64
	sixME  float64
}{
	{16, 956, 5600},
	{128, 390, 2300},
	{1024, 60, 300},
}

// TestSingleEngineMatchesPaper: the uncontended per-packet cycle budget must
// reproduce the single-microengine column of Table 2 within 2%.
func TestSingleEngineMatchesPaper(t *testing.T) {
	for _, row := range paperTable2 {
		p, err := ProfileForQueues(row.queues)
		if err != nil {
			t.Fatal(err)
		}
		got := p.SingleEngineKpps()
		if rel := math.Abs(got-row.oneME) / row.oneME; rel > 0.02 {
			t.Errorf("%d queues: %0.f Kpps, paper %0.f (off %.1f%%)",
				row.queues, got, row.oneME, rel*100)
		}
	}
}

// TestTable2MatchesPaper: the full contention simulation must reproduce both
// columns within 5%.
func TestTable2MatchesPaper(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, row := range rows {
		want := paperTable2[i]
		if row.Queues != want.queues {
			t.Fatalf("row %d queues = %d", i, row.Queues)
		}
		if rel := math.Abs(row.OneEngine.Kpps-want.oneME) / want.oneME; rel > 0.05 {
			t.Errorf("%d queues 1ME: %.0f Kpps, paper %.0f", row.Queues, row.OneEngine.Kpps, want.oneME)
		}
		if rel := math.Abs(row.SixEngines.Kpps-want.sixME) / want.sixME; rel > 0.05 {
			t.Errorf("%d queues 6ME: %.0f Kpps, paper %.0f", row.Queues, row.SixEngines.Kpps, want.sixME)
		}
	}
}

// TestPaper150MbpsClaim: "the whole of the IXP cannot support more than
// 150Mbps of network bandwidth, even if only 1K queues are needed".
func TestPaper150MbpsClaim(t *testing.T) {
	p, _ := ProfileForQueues(1024)
	six, err := Run(Config{Profile: p, Engines: 6})
	if err != nil {
		t.Fatal(err)
	}
	mbps := six.MbpsAt64B()
	if mbps > 170 || mbps < 130 {
		t.Fatalf("6-ME 1K-queue throughput = %.0f Mbps, paper bounds it at ~150", mbps)
	}
}

// TestSublinearScaling: adding engines must help, but never superlinearly,
// and the 1024-queue tier must scale visibly worse than the 16-queue tier.
func TestSublinearScaling(t *testing.T) {
	speedup := func(p Profile) float64 {
		one, err := Run(Config{Profile: p, Engines: 1})
		if err != nil {
			t.Fatal(err)
		}
		six, err := Run(Config{Profile: p, Engines: 6})
		if err != nil {
			t.Fatal(err)
		}
		return six.Kpps / one.Kpps
	}
	s16 := speedup(Tier16)
	s1024 := speedup(Tier1024)
	if s16 > 6.01 || s1024 > 6.01 {
		t.Fatalf("superlinear scaling: %v %v", s16, s1024)
	}
	if s16 < 5 {
		t.Fatalf("16-queue tier should scale almost linearly, got %.2fx", s16)
	}
	if s1024 > s16-0.3 {
		t.Fatalf("1024-queue tier should scale worse (SDRAM contention): %.2fx vs %.2fx", s1024, s16)
	}
}

// TestMonotoneInEngines: throughput must not decrease with engine count.
func TestMonotoneInEngines(t *testing.T) {
	prev := 0.0
	for n := 1; n <= 6; n++ {
		r, err := Run(Config{Profile: Tier128, Engines: n, Packets: 800})
		if err != nil {
			t.Fatal(err)
		}
		if r.Kpps < prev*0.99 {
			t.Fatalf("throughput fell from %.0f to %.0f Kpps at %d engines", prev, r.Kpps, n)
		}
		prev = r.Kpps
	}
}

// TestSDRAMSaturates: at the 1024-queue tier with six engines the SDRAM
// unit must be the bottleneck (high utilization), while at 16 queues no
// unit saturates.
func TestSDRAMSaturates(t *testing.T) {
	six1024, err := Run(Config{Profile: Tier1024, Engines: 6})
	if err != nil {
		t.Fatal(err)
	}
	if six1024.UnitBusy[SDRAM] < 0.85 {
		t.Fatalf("SDRAM busy = %.2f, expected saturation", six1024.UnitBusy[SDRAM])
	}
	six16, err := Run(Config{Profile: Tier16, Engines: 6})
	if err != nil {
		t.Fatal(err)
	}
	for u, busy := range six16.UnitBusy {
		if busy > 0.85 {
			t.Fatalf("16-queue tier saturates %v (%.2f)", Unit(u), busy)
		}
	}
}

func TestProfileForQueuesBounds(t *testing.T) {
	if _, err := ProfileForQueues(0); err == nil {
		t.Fatal("zero queues accepted")
	}
	if _, err := ProfileForQueues(4096); err == nil {
		t.Fatal("beyond-tier queue count accepted")
	}
	p, err := ProfileForQueues(100)
	if err != nil || p.Name != Tier128.Name {
		t.Fatalf("100 queues -> %v (%v)", p.Name, err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Profile: Tier16, Engines: 0}); err == nil {
		t.Fatal("zero engines accepted")
	}
	if _, err := Run(Config{Profile: Tier16, Engines: 7}); err == nil {
		t.Fatal("7 engines accepted")
	}
	if _, err := Run(Config{Engines: 1}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(Config{Profile: Tier128, Engines: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Profile: Tier128, Engines: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestUnitStrings(t *testing.T) {
	if Scratch.String() != "scratch" || SRAM.String() != "sram" || SDRAM.String() != "sdram" {
		t.Fatal("Unit.String broken")
	}
	if Unit(9).String() == "" {
		t.Fatal("unknown unit must render")
	}
}

func TestTiming(t *testing.T) {
	for u, tm := range timings {
		if tm.latency < tm.occupancy || tm.occupancy <= 0 {
			t.Errorf("%v timing = %d/%d: a unit is busy no longer than an access takes", Unit(u), tm.latency, tm.occupancy)
		}
	}
}

func BenchmarkRunSixEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Profile: Tier128, Engines: 6, Packets: 500}); err != nil {
			b.Fatal(err)
		}
	}
}
