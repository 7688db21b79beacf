package npu

import "fmt"

// The IBM CoreConnect Processor Local Bus of Figure 1, as a transaction cost
// model rather than a signal-level simulation: the Section 5.3 analysis
// needs only the per-transaction cycle costs, which the paper states — a
// single PLB transaction takes 4 cycles, the bus adds 3 cycles of latency,
// and a line transaction bursts 9 doublewords (64 bytes plus the alignment
// beat) back-to-back.
const (
	// singleBeatCycles is the cost of one single-beat read or write
	// transaction ("each single PLB write transaction needs 4 cycles").
	singleBeatCycles = 4
	// latencyCycles is the bus grant/decode latency of a transaction
	// ("3 cycle latency").
	latencyCycles = 3
	// lineBeats is the number of doubleword beats of a 64-byte line
	// transaction ("9 cycles for 9 double words").
	lineBeats = 9
	// dmaCopyCycles is the bus occupancy of the DMA engine moving one
	// 64-byte segment ("at least 34 cycles to copy the data from the BRAM
	// to the DRAM"): two line bursts plus the DMA engine's own arbitration.
	dmaCopyCycles = 34
)

// busSingle is a single-beat bus transaction (one 32/64-bit word).
func busSingle(name string) Step { return Step{Name: name, Cycles: singleBeatCycles} }

// busLine is a burst line transaction moving 64 bytes through the data
// cache: 9 beats plus the bus latency ("a segment can be retrieved from the
// BRAM and stored into the data cache in only 12 cycles").
func busLine(name string) Step { return Step{Name: name, Cycles: lineBeats + latencyCycles} }

// lineCopyCycles is the cost of copying one 64-byte segment with two line
// transactions (read into the cache, write back out):
// TC = (TR + Tl) + (TW + Tl) = 2*(9+3) = 24 cycles.
func lineCopyCycles() int {
	return SubOp{Steps: []Step{busLine("line read"), busLine("line write")}}.Cycles()
}

// wordCopyCycles is the cost of copying n bytes word-by-word over the bus:
// one single-beat read plus one single-beat write per 32-bit word, plus the
// loop setup overhead. For a 64-byte segment this is the paper's 136 cycles
// (16 words x 8 cycles + 8).
func wordCopyCycles(bytes int) (int, error) {
	if bytes <= 0 || bytes%4 != 0 {
		return 0, fmt.Errorf("npu: word copy needs a positive multiple of 4 bytes, got %d", bytes)
	}
	const loopOverhead = 8
	return bytes/4*(2*singleBeatCycles) + loopOverhead, nil
}

// dmaSetupCycles is the CPU cost of programming the DMA controller: four
// 32-bit register writes (control, source, destination, length), each a
// single PLB write transaction ("we need at least 16 cycles to initiate the
// DMA transfer").
func dmaSetupCycles() int {
	return SubOp{Steps: []Step{
		busSingle("DMA control register"),
		busSingle("DMA source address"),
		busSingle("DMA destination address"),
		busSingle("DMA length register"),
	}}.Cycles()
}
