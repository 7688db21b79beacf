// Package npu models the reference NPU prototype of Section 5 and Figure 1:
// a PowerPC 405 on a 100 MHz, 64-bit PLB inside a Virtex-II Pro, with the
// packet buffer in external DDR DRAM, the queue pointers in external ZBT
// SRAM behind the EMC, and an Ethernet MAC feeding a dual-port BRAM.
//
// The package reproduces Table 3 — the cycle cost of each software queue
// management sub-operation — together with the Section 5.3 optimization
// analysis (PLB line transactions through the data cache, and DMA
// offloading) and the Section 5.4 "clock frequency is proportional to the
// network bandwidth" rule of thumb.
//
// Every sub-operation is an explicit micro-program over the prototype's
// units; pointer accesses go to the ZBT SRAM through the EMC as single PLB
// transactions (4 transfer cycles + 3 bus latency = 7 cycles each), and the
// segment copy moves 64 bytes between the DP-BRAM and the DDR DRAM using
// one of three copy engines.
package npu

import "fmt"

// ClockMHz is the reference prototype's CPU and bus clock.
const ClockMHz = 100

// PacketBits is the worst-case packet the paper sizes against (64 bytes).
const PacketBits = 64 * 8

// SRAMAccessCycles is the cost of one pointer access to the ZBT SRAM via
// the PLB EMC: a single-beat transaction plus the bus latency.
const SRAMAccessCycles = singleBeatCycles + latencyCycles // 7

// Step is one priced step of a sub-operation's micro-program.
type Step struct {
	Name   string
	Cycles int
}

// SubOp is a named sequence of steps (one Table 3 row entry).
type SubOp struct {
	Name  string
	Steps []Step
}

// Cycles totals the micro-program.
func (s SubOp) Cycles() int {
	total := 0
	for _, st := range s.Steps {
		total += st.Cycles
	}
	return total
}

func sramStep(name string) Step { return Step{Name: name, Cycles: SRAMAccessCycles} }
func cpuStep(name string, cycles int) Step {
	return Step{Name: name, Cycles: cycles}
}

// DequeueFreeList pops a free segment pointer from the free list:
// 4 pointer accesses + branch/bookkeeping = 34 cycles (Table 3, enqueue
// column).
func DequeueFreeList() SubOp {
	return SubOp{Name: "Dequeue Free List", Steps: []Step{
		sramStep("read free-list head"),
		sramStep("read next[head]"),
		sramStep("write free-list head"),
		sramStep("clear next[segment]"),
		cpuStep("underflow check + bookkeeping", 6),
	}}
}

// EnqueueFreeList returns a segment to the free list: 5 pointer accesses +
// bookkeeping = 42 cycles (Table 3, dequeue column — the paper lists it on
// the "Dequeue Free List" row of the Dequeue operation).
func EnqueueFreeList() SubOp {
	return SubOp{Name: "Enqueue Free List", Steps: []Step{
		sramStep("read free-list tail"),
		sramStep("write next[tail]"),
		sramStep("write free-list tail"),
		sramStep("clear next[segment]"),
		sramStep("write segment state"),
		cpuStep("bookkeeping", 7),
	}}
}

// EnqueueSegment links a filled segment at a queue's tail. The first
// segment of a packet costs 46 cycles; later segments cost 68 because the
// continuation bookkeeping (packet length accumulation in the first
// segment's descriptor and the EOP hand-over) adds pointer traffic
// (Table 3: "46 for the first segment of the packet, 68 for the rest").
func EnqueueSegment(first bool) SubOp {
	steps := []Step{
		sramStep("read queue-table tail"),
		sramStep("write next[old tail]"),
		sramStep("write queue-table tail"),
		sramStep("write segment meta (len,eop)"),
		sramStep("update queue length"),
		cpuStep("head/empty check + bookkeeping", 11),
	}
	if !first {
		steps = append(steps,
			sramStep("read first-segment descriptor"),
			sramStep("accumulate packet length"),
			sramStep("move EOP marker"),
			cpuStep("continuation bookkeeping", 1),
		)
	}
	name := "Enqueue Segment (first)"
	if !first {
		name = "Enqueue Segment (rest)"
	}
	return SubOp{Name: name, Steps: steps}
}

// DequeueSegment unlinks a queue's head segment: 6 pointer accesses +
// bookkeeping = 52 cycles (Table 3, dequeue column "Enqueue Segment" row).
func DequeueSegment() SubOp {
	return SubOp{Name: "Dequeue Segment", Steps: []Step{
		sramStep("read queue-table head"),
		sramStep("read next[head]"),
		sramStep("write queue-table head"),
		sramStep("read segment meta"),
		sramStep("update queue length"),
		sramStep("write tail-if-emptied"),
		cpuStep("empty check + bookkeeping", 10),
	}}
}

// CopyEngine selects the 64-byte segment copy mechanism of Section 5.3.
type CopyEngine int

const (
	// WordCopy is the baseline: the CPU moves the segment word by word
	// over the PLB (136 cycles).
	WordCopy CopyEngine = iota
	// LineCopy uses PLB line transactions through the data cache
	// (2 x 12 = 24 cycles).
	LineCopy
	// DMACopy programs a DMA engine: 16 CPU cycles of setup while the
	// 34-cycle transfer runs on the DMA's clock.
	DMACopy
)

// String implements fmt.Stringer.
func (e CopyEngine) String() string {
	switch e {
	case WordCopy:
		return "word-copy"
	case LineCopy:
		return "line-copy"
	case DMACopy:
		return "dma-copy"
	default:
		return fmt.Sprintf("copy-engine(%d)", int(e))
	}
}

// CopyEngines lists all copy engines.
func CopyEngines() []CopyEngine { return []CopyEngine{WordCopy, LineCopy, DMACopy} }

// CopyCost returns the copy cost of one 64-byte segment: the cycles the CPU
// is busy, and the wall-clock cycles until the data has moved.
func CopyCost(e CopyEngine) (cpu, wall int) {
	switch e {
	case WordCopy:
		c, err := wordCopyCycles(64)
		if err != nil {
			panic(err) // 64 is always valid
		}
		return c, c
	case LineCopy:
		c := lineCopyCycles()
		return c, c
	case DMACopy:
		return dmaSetupCycles(), dmaSetupCycles() + dmaCopyCycles
	default:
		panic(fmt.Sprintf("npu: unknown copy engine %d", int(e)))
	}
}

// OpCost is the priced cost of a full enqueue or dequeue packet operation.
type OpCost struct {
	Op       string
	FreeList SubOp
	Segment  SubOp
	CopyCPU  int // CPU cycles spent on the copy
	CopyWall int // wall cycles until the copy completes
}

// CPUCycles is the processor time consumed by the operation.
func (o OpCost) CPUCycles() int {
	return o.FreeList.Cycles() + o.Segment.Cycles() + o.CopyCPU
}

// WallCycles is the elapsed time of the operation (DMA overlaps the CPU's
// next work only after the operation's own copy completes, so wall >= CPU).
func (o OpCost) WallCycles() int {
	return o.FreeList.Cycles() + o.Segment.Cycles() + o.CopyWall
}

// EnqueueCost prices the enqueue-packet operation: allocate a segment from
// the free list, link it, copy the data in (Section 5.2's decomposition).
func EnqueueCost(firstSegment bool, engine CopyEngine) OpCost {
	cpu, wall := CopyCost(engine)
	return OpCost{
		Op:       "Enqueue",
		FreeList: DequeueFreeList(),
		Segment:  EnqueueSegment(firstSegment),
		CopyCPU:  cpu,
		CopyWall: wall,
	}
}

// DequeueCost prices the dequeue-packet operation: unlink the head segment,
// return it to the free list, copy the data out.
func DequeueCost(engine CopyEngine) OpCost {
	cpu, wall := CopyCost(engine)
	return OpCost{
		Op:       "Dequeue",
		FreeList: EnqueueFreeList(),
		Segment:  DequeueSegment(),
		CopyCPU:  cpu,
		CopyWall: wall,
	}
}

// Table3Row is one column of Table 3 (an operation's decomposition).
type Table3Row struct {
	Function string
	Enqueue  int // cycles in the Enqueue operation (first/rest reported separately)
	EnqueueR int // "rest" variant where it differs (0 = same)
	Dequeue  int // cycles in the Dequeue operation
}

// Table3 reproduces the paper's Table 3 for the baseline word-copy
// implementation.
func Table3() []Table3Row {
	enq := EnqueueCost(true, WordCopy)
	enqR := EnqueueCost(false, WordCopy)
	deq := DequeueCost(WordCopy)
	return []Table3Row{
		{Function: "Dequeue Free List", Enqueue: enq.FreeList.Cycles(), Dequeue: deq.FreeList.Cycles()},
		{Function: "Enqueue Segment", Enqueue: enq.Segment.Cycles(), EnqueueR: enqR.Segment.Cycles(), Dequeue: deq.Segment.Cycles()},
		{Function: "Copy a segment", Enqueue: enq.CopyCPU, Dequeue: deq.CopyCPU},
		{Function: "Total", Enqueue: enq.CPUCycles(), EnqueueR: enqR.CPUCycles(), Dequeue: deq.CPUCycles()},
	}
}

// TransitMbps returns the sustainable network throughput at the given clock:
// every transiting packet costs one enqueue plus one dequeue of CPU time,
// and a worst-case 64-byte packet is a single (first) segment. This
// reproduces the Section 5.3/5.4 arithmetic: 216+230 = 446 of the 512
// cycles available per 5.12 us at 100 MHz ("for the queue management only,
// all the available processing capacity of the PowerPC core has to be used
// so as to support a full duplex 100Mbps line"), and ~230 Mbps with line
// transactions ("would sustain up to about 200 Mbps").
func TransitMbps(engine CopyEngine, clockMHz float64) float64 {
	if clockMHz <= 0 {
		panic("npu: non-positive clock")
	}
	pair := EnqueueCost(true, engine).CPUCycles() + DequeueCost(engine).CPUCycles()
	pps := clockMHz * 1e6 / float64(pair)
	return pps * PacketBits / 1e6
}
