// Package core implements the paper's FPGA Memory Management System (MMS):
// a hardware queue manager supporting per-flow queuing for up to 32K flows
// over 64-byte segments at 125 MHz (Section 6, Figure 2, Tables 4 and 5).
//
// The MMS consists of five blocks operating in parallel, mirrored here one
// type per block:
//
//   - InternalScheduler: per-port command FIFOs with programmable service
//     priorities, feeding the DQM (sched.go);
//   - DQM (Data Queue Manager): executes queue commands against the pointer
//     memory; each command is a micro-program of pointer-SRAM accesses whose
//     schedule length is the command latency of Table 4 (dqm.go);
//   - DMC (Data Memory Controller): performs the segment reads/writes
//     against the banked DDR data memory, issuing interleaved commands to
//     minimize bank conflicts (dmc.go);
//   - Segmentation and Reassembly: cut packets into 64-byte segments and
//     rebuild them (segre.go).
//
// The functional semantics come from internal/queue; this package adds the
// hardware timing.
package core

import "fmt"

// Command identifies an MMS queue-management command (Table 4).
type Command int

// The MMS command set, in Table 4 order.
const (
	CmdEnqueue Command = iota
	CmdRead
	CmdOverwrite
	CmdMove
	CmdDelete
	CmdOverwriteSegLen
	CmdDequeue
	CmdOverwriteSegLenMove
	CmdOverwriteSegMove
	numCommands
)

// String implements fmt.Stringer using the paper's command names.
func (c Command) String() string {
	switch c {
	case CmdEnqueue:
		return "Enqueue"
	case CmdRead:
		return "Read"
	case CmdOverwrite:
		return "Overwrite"
	case CmdMove:
		return "Move"
	case CmdDelete:
		return "Delete"
	case CmdOverwriteSegLen:
		return "Overwrite_Segment_length"
	case CmdDequeue:
		return "Dequeue"
	case CmdOverwriteSegLenMove:
		return "Overwrite_Segment_length&Move"
	case CmdOverwriteSegMove:
		return "Overwrite_Segment&Move"
	default:
		return fmt.Sprintf("command(%d)", int(c))
	}
}

// Commands lists the full command set in Table 4 order.
func Commands() []Command {
	cs := make([]Command, numCommands)
	for i := range cs {
		cs[i] = Command(i)
	}
	return cs
}

// MicroOp is one step of a command's pointer-memory micro-program. Cycles is
// the step's contribution to the execution latency: pointer-SRAM reads cost
// the 2-cycle ZBT pipeline, writes and register updates cost 1 cycle, and
// steps that overlap with an SRAM read in flight cost 0.
type MicroOp struct {
	Name   string
	Cycles int
}

// microprograms holds the per-command pointer-memory schedules. The schedule
// lengths are the measured latencies of Table 4; the step decomposition
// follows the paper's description of each operation (Section 5.2: "First a
// new pointer is allocated from the free list, then this pointer is stored
// to the queue list and then the data are transferred to the memory") with
// the first step of each program producing the data-memory address, so the
// DMC can start the data access "right after the first pointer memory access
// of each command has been completed" (Section 6.1).
var microprograms = map[Command][]MicroOp{
	// Enqueue one segment: pop the free list, link at queue tail. 10 cycles.
	CmdEnqueue: {
		{"read free-list head (data address)", 2},
		{"update free-list head", 1},
		{"write segment meta (len,eop)", 1},
		{"read queue-table tail", 2},
		{"link next[old tail]", 1},
		{"write queue-table tail", 1},
		{"update queue length", 1},
		{"commit / grant next", 1},
	},
	// Read the head segment without dequeuing. 10 cycles.
	CmdRead: {
		{"read queue-table head (data address)", 2},
		{"read segment meta", 2},
		{"read next pointer", 2},
		{"issue data read to DMC", 1},
		{"update statistics", 1},
		{"commit / grant next", 2},
	},
	// Overwrite the head segment's data (and meta). 10 cycles.
	CmdOverwrite: {
		{"read queue-table head (data address)", 2},
		{"read segment meta", 2},
		{"write segment meta", 1},
		{"issue data write to DMC", 1},
		{"writeback check", 2},
		{"commit / grant next", 2},
	},
	// Move the head packet to a new queue: pure pointer surgery. 11 cycles.
	CmdMove: {
		{"read queue-table head (from)", 2},
		{"read packet-end pointer", 2},
		{"write queue-table head (from)", 1},
		{"read queue-table tail (to)", 2},
		{"link next[tail(to)]", 1},
		{"write queue-table tail (to)", 1},
		{"update queue lengths", 1},
		{"commit / grant next", 1},
	},
	// Delete the head segment: unlink and push on the free list. 7 cycles.
	CmdDelete: {
		{"read queue-table head", 2},
		{"read next pointer", 2},
		{"write queue-table head", 1},
		{"push free list", 1},
		{"commit / grant next", 1},
	},
	// Overwrite only the stored segment length (metadata-only). 7 cycles.
	CmdOverwriteSegLen: {
		{"read queue-table head", 2},
		{"read segment meta", 2},
		{"write segment meta", 1},
		{"commit / grant next", 2},
	},
	// Dequeue the head segment: unlink, free, emit data. 11 cycles.
	CmdDequeue: {
		{"read queue-table head (data address)", 2},
		{"read segment meta", 2},
		{"read next pointer", 2},
		{"write queue-table head", 1},
		{"push free list", 1},
		{"update queue length", 1},
		{"issue data read to DMC", 1},
		{"commit / grant next", 1},
	},
	// Combined commands share the head lookup between their two halves,
	// which is why they cost far less than the sum of the parts. 12 cycles.
	CmdOverwriteSegLenMove: {
		{"read queue-table head (from)", 2},
		{"read segment meta", 2},
		{"write segment meta", 1},
		{"read packet-end pointer", 2},
		{"write queue-table head (from)", 1},
		{"read queue-table tail (to)", 1}, // overlapped with head write
		{"link next[tail(to)] + tail update", 1},
		{"update queue lengths", 1},
		{"commit / grant next", 1},
	},
	CmdOverwriteSegMove: {
		{"read queue-table head (from, data address)", 2},
		{"read segment meta", 2},
		{"write segment meta + issue data write", 1},
		{"read packet-end pointer", 2},
		{"write queue-table head (from)", 1},
		{"read queue-table tail (to)", 1}, // overlapped with head write
		{"link next[tail(to)] + tail update", 1},
		{"update queue lengths", 1},
		{"commit / grant next", 1},
	},
}

// paperLatency is Table 4 verbatim, in cycles at 125 MHz.
var paperLatency = map[Command]int{
	CmdEnqueue:             10,
	CmdRead:                10,
	CmdOverwrite:           10,
	CmdMove:                11,
	CmdDelete:              7,
	CmdOverwriteSegLen:     7,
	CmdDequeue:             11,
	CmdOverwriteSegLenMove: 12,
	CmdOverwriteSegMove:    12,
}

// Cycles returns the execution latency of c in MMS clock cycles — the
// schedule length of its micro-program (Table 4).
func (c Command) Cycles() int {
	total := 0
	for _, op := range microprograms[c] {
		total += op.Cycles
	}
	return total
}

// PaperCycles returns the latency published in Table 4 for cross-checking.
func (c Command) PaperCycles() int { return paperLatency[c] }

// TouchesData reports whether the command moves segment data through the
// DMC (Delete and Overwrite_Segment_length and Move are pointer-only).
func (c Command) TouchesData() bool {
	switch c {
	case CmdDelete, CmdOverwriteSegLen, CmdMove, CmdOverwriteSegLenMove:
		return false
	default:
		return true
	}
}

// IsWrite reports whether the command's data access writes to the data
// memory (as opposed to reading it).
func (c Command) IsWrite() bool {
	switch c {
	case CmdEnqueue, CmdOverwrite, CmdOverwriteSegMove:
		return true
	default:
		return false
	}
}
