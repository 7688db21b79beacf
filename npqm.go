// Package npqm is a Go reproduction of "Queue Management in Network
// Processors" (Papaefstathiou et al., DATE 2005): a segment-based,
// per-flow hardware queue manager (the MMS) together with the software
// baselines the paper measures it against (queue management on the Intel
// IXP1200 and on a PowerPC-based reference NPU) and the behavioral
// DDR-SDRAM model underlying its memory analysis.
//
// The package exposes a facade over the internal models:
//
//   - QueueManager: the functional linked-list queue engine (32K flows,
//     64-byte segments, enqueue/dequeue/delete/overwrite/append/move);
//   - ConcurrentQueueManager: the goroutine-safe sharded engine — the flow
//     space hash-partitioned over shards for multi-core use, all shards
//     allocating from one shared segment store as the paper's MMS does;
//   - MMS: the timed hardware model (Table 4 command latencies, Table 5
//     delay decomposition, 6.1 Gbps headline throughput);
//   - Report and the Run* helpers: regenerate every table and figure of
//     the paper's evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package npqm

import (
	"fmt"
	"io"

	"npqm/internal/core"
	"npqm/internal/ixp"
	"npqm/internal/npu"
	"npqm/internal/queue"
	"npqm/internal/tables"
)

// SegmentBytes is the fixed segment size of the queue engine (64 bytes).
const SegmentBytes = queue.SegmentBytes

// Sentinel errors of the queue engine, re-exported so callers can classify
// failures with errors.Is without importing internal packages.
var (
	ErrQueueEmpty     = queue.ErrQueueEmpty
	ErrNoFreeSegments = queue.ErrNoFreeSegments
	ErrQueueLimit     = queue.ErrQueueLimit
	ErrNoPacket       = queue.ErrNoPacket
	ErrWriterDone     = queue.ErrWriterDone
)

// PacketView is a dequeued packet exposed as a zero-copy view over its
// 64-byte segment chain: iterate the payload in place with Range (one
// slice per contiguous run of the chain, at most one per segment), then
// Release to return the whole chain to the pool in one
// bulk operation. Views are reference counted (Retain/Release) and safe
// to release from any goroutine. See DESIGN.md's zero-copy section for
// the lifetime rules.
type PacketView = queue.PacketView

// PacketWriter is an open write-in-place reservation on the functional
// queue engine: fill the reserved memory through Range (one slice per
// contiguous run, at most one per segment — the iovecs a readv-style
// receiver scatters into), then Commit to splice the
// packet onto its queue or Abort to return the segments.
type PacketWriter = queue.PacketWriter

// DefaultFlows is the MMS per-flow queue count (32K).
const DefaultFlows = queue.DefaultNumQueues

// QueueManager is the functional queue engine: hardware-style linked-list
// queues over a segment pool, as described in Sections 5.2 and 6.
type QueueManager struct {
	m *queue.Manager
}

// NewQueueManager allocates a queue manager with the given flow count
// (0 means 32K) and segment pool size.
func NewQueueManager(flows, segments int) (*QueueManager, error) {
	m, err := queue.New(queue.Config{NumQueues: flows, NumSegments: segments})
	if err != nil {
		return nil, err
	}
	return &QueueManager{m: m}, nil
}

// EnqueuePacket segments data onto flow q; it returns the segment count.
func (qm *QueueManager) EnqueuePacket(q uint32, data []byte) (int, error) {
	return qm.m.EnqueuePacket(queue.QueueID(q), data)
}

// DequeuePacket removes and reassembles the packet at the head of flow q.
func (qm *QueueManager) DequeuePacket(q uint32) ([]byte, error) {
	data, _, err := qm.m.DequeuePacket(queue.QueueID(q))
	return data, err
}

// DequeuePacketView removes the packet at the head of flow q as a
// zero-copy view over its segment chain — no reassembly buffer, no copy.
// The caller must Release the view exactly once; its segments stay
// checked out of the pool (lent, visible in CheckInvariants' conservation
// law) until then.
func (qm *QueueManager) DequeuePacketView(q uint32) (PacketView, error) {
	return qm.m.DequeuePacketView(queue.QueueID(q))
}

// ReservePacket opens an n-byte write-in-place reservation on flow q:
// the segment run is allocated and linked now, the caller fills it
// through PacketWriter.Range, and Commit makes the packet visible in
// O(1) without the payload ever being copied.
func (qm *QueueManager) ReservePacket(q uint32, n int) (PacketWriter, error) {
	return qm.m.ReservePacket(queue.QueueID(q), n)
}

// MovePacket relinks the head packet of one flow onto another without
// copying data; it returns the number of segments moved.
func (qm *QueueManager) MovePacket(from, to uint32) (int, error) {
	return qm.m.MovePacket(queue.QueueID(from), queue.QueueID(to))
}

// DeletePacket drops the head packet of flow q, returning its segment count.
func (qm *QueueManager) DeletePacket(q uint32) (int, error) {
	return qm.m.DeletePacket(queue.QueueID(q))
}

// Len returns the number of queued segments on flow q.
func (qm *QueueManager) Len(q uint32) (int, error) {
	return qm.m.Len(queue.QueueID(q))
}

// PacketLen returns the byte and segment length of the head packet of q.
func (qm *QueueManager) PacketLen(q uint32) (bytes, segments int, err error) {
	return qm.m.PacketLen(queue.QueueID(q))
}

// FreeSegments returns the remaining pool capacity.
func (qm *QueueManager) FreeSegments() int { return qm.m.FreeSegments() }

// CheckInvariants validates the pointer structures (for tests/debugging).
func (qm *QueueManager) CheckInvariants() error { return qm.m.CheckInvariants() }

// MMS is the timed hardware queue manager of Section 6.
type MMS struct {
	m *core.MMS
}

// NewMMS builds an MMS with the paper's reference configuration (32K flows,
// 4 ports, 8 DDR banks) and the given segment pool size (0 means 64K).
func NewMMS(segments int) (*MMS, error) {
	m, err := core.New(core.Config{NumSegments: segments})
	if err != nil {
		return nil, err
	}
	return &MMS{m: m}, nil
}

// Push segments a packet onto flow q through the Segmentation block.
func (h *MMS) Push(q uint32, data []byte) (segments int, err error) {
	return h.m.Seg.Push(queue.QueueID(q), data)
}

// Pop reassembles and removes the head packet of flow q through the
// Reassembly block.
func (h *MMS) Pop(q uint32) ([]byte, error) {
	data, _, err := h.m.Reasm.Pop(queue.QueueID(q))
	return data, err
}

// Move relinks the head packet between flows (the MMS Move command).
func (h *MMS) Move(from, to uint32) (int, error) {
	resp, err := h.m.Do(core.Request{Cmd: core.CmdMove, Queue: queue.QueueID(from), Dest: queue.QueueID(to)})
	if err != nil {
		return 0, err
	}
	return resp.Moved, nil
}

// Backlog returns the number of queued segments on flow q.
func (h *MMS) Backlog(q uint32) (int, error) {
	return h.m.Queues().Len(queue.QueueID(q))
}

// CommandCycles returns the execution latency of each MMS command in
// 125 MHz cycles (Table 4).
func (h *MMS) CommandCycles() map[string]int {
	out := make(map[string]int)
	for cmd, cycles := range core.Table4() {
		out[cmd.String()] = cycles
	}
	return out
}

// HeadlineThroughputGbps is the sustained forwarding throughput of the MMS
// (the paper's 6.145 Gbps at 125 MHz).
func HeadlineThroughputGbps() float64 { return core.HeadlineThroughputGbps() }

// SoftwareTransitMbps returns the reference-NPU software throughput for the
// given copy engine name ("word", "line", "dma") at the given clock — the
// Section 5 baseline the MMS is compared against.
func SoftwareTransitMbps(copyEngine string, clockMHz float64) (float64, error) {
	var e npu.CopyEngine
	switch copyEngine {
	case "word":
		e = npu.WordCopy
	case "line":
		e = npu.LineCopy
	case "dma":
		e = npu.DMACopy
	default:
		return 0, fmt.Errorf("npqm: unknown copy engine %q (want word, line or dma)", copyEngine)
	}
	return npu.TransitMbps(e, clockMHz), nil
}

// IXPKpps returns the IXP1200 software queue-management packet rate for the
// given queue count and microengine count (Table 2).
func IXPKpps(queues, engines int) (float64, error) {
	p, err := ixp.ProfileForQueues(queues)
	if err != nil {
		return 0, err
	}
	res, err := ixp.Run(ixp.Config{Profile: p, Engines: engines})
	if err != nil {
		return 0, err
	}
	return res.Kpps, nil
}

// Report writes the full paper-vs-measured reproduction report (all five
// tables, both figures) to w. decisions controls the DDR simulation length
// (0 means 400000).
func Report(w io.Writer, seed uint64, decisions int) error {
	if decisions == 0 {
		decisions = 400_000
	}
	out, err := tables.RenderAll(seed, decisions)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, out)
	return err
}
