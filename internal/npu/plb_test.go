package npu

import "testing"

func TestLineCopyMatchesPaper(t *testing.T) {
	// TC = 2*(9+3) = 24 (Section 5.3).
	if got := lineCopyCycles(); got != 24 {
		t.Fatalf("line copy = %d cycles, paper says 24", got)
	}
}

func TestWordCopyMatchesPaper(t *testing.T) {
	// 64-byte segment word-by-word = 136 cycles (Table 3, "Copy a segment").
	got, err := wordCopyCycles(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != 136 {
		t.Fatalf("word copy = %d cycles, paper says 136", got)
	}
}

func TestWordCopyValidation(t *testing.T) {
	if _, err := wordCopyCycles(0); err == nil {
		t.Fatal("zero bytes accepted")
	}
	if _, err := wordCopyCycles(7); err == nil {
		t.Fatal("unaligned size accepted")
	}
}

func TestDMASetupMatchesPaper(t *testing.T) {
	// 4 register writes x 4 cycles = 16 (Section 5.3).
	if got := dmaSetupCycles(); got != 16 {
		t.Fatalf("DMA setup = %d cycles, paper says 16", got)
	}
}

func TestTransactionHelpers(t *testing.T) {
	s := busSingle("x")
	if s.Cycles != singleBeatCycles || s.Name != "x" {
		t.Fatalf("single = %+v", s)
	}
	l := busLine("y")
	if l.Cycles != lineBeats+latencyCycles {
		t.Fatalf("line = %+v", l)
	}
	if (SubOp{}).Cycles() != 0 {
		t.Fatal("empty sum != 0")
	}
	if (SubOp{Steps: []Step{s, l}}).Cycles() != s.Cycles+l.Cycles {
		t.Fatal("sum wrong")
	}
}

func TestScalingSanity(t *testing.T) {
	// Copying more bytes must cost proportionally more.
	c64, _ := wordCopyCycles(64)
	c128, _ := wordCopyCycles(128)
	if c128 <= c64 {
		t.Fatal("128-byte copy not more expensive than 64")
	}
}
