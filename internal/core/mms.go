package core

import (
	"fmt"

	"npqm/internal/queue"
)

// Request is one command submitted to the MMS.
type Request struct {
	Cmd     Command
	Queue   queue.QueueID // target flow queue
	Dest    queue.QueueID // destination queue for Move-family commands
	Payload []byte        // segment data for Enqueue/Overwrite
	EOP     bool          // end-of-packet marker for Enqueue
	Length  int           // new length for Overwrite_Segment_length

	// onDone, when set by the load simulator, runs after the command's
	// execution completes (used to order dequeue bursts strictly behind
	// the enqueues of the same packet).
	onDone func(nowHC int64)
}

// Response reports the outcome of an executed command.
type Response struct {
	Cmd        Command
	Seg        queue.Seg     // affected segment (Enqueue)
	Info       queue.SegInfo // head-segment description (Read/Dequeue)
	Payload    []byte        // data returned by Read/Dequeue
	Moved      int           // segments relocated by Move-family commands
	ExecCycles int           // DQM execution latency (Table 4)
}

// Config sizes an MMS instance.
type Config struct {
	// NumQueues is the flow count (0 means the paper's 32K).
	NumQueues int
	// NumSegments is the data-memory capacity in 64-byte segments
	// (0 means 64K segments = 4 MB of data memory).
	NumSegments int
	// Ports is the number of command interfaces (0 means 4: two ingress,
	// two egress, matching the paper's reference configuration).
	Ports int
	// FIFODepth is the per-port command FIFO depth in commands (0 means 2;
	// calibrated against Table 5's saturation FIFO delay — the shallow
	// FIFO plus back-pressure is what bounds the delay under overload;
	// see EXPERIMENTS.md).
	FIFODepth int
	// Priorities optionally assigns per-port service priorities.
	Priorities []int
	// DataBanks is the DDR bank count behind the DMC (0 means 8).
	DataBanks int
}

func (c Config) withDefaults() Config {
	if c.NumQueues == 0 {
		c.NumQueues = queue.DefaultNumQueues
	}
	if c.NumSegments == 0 {
		c.NumSegments = 64 * 1024
	}
	if c.Ports == 0 {
		c.Ports = 4
	}
	if c.FIFODepth == 0 {
		c.FIFODepth = 2
	}
	if c.DataBanks == 0 {
		c.DataBanks = 8
	}
	return c
}

// MMS is the Memory Management System: the five blocks of Figure 2 around
// the functional queue engine. Commands submitted through Do execute
// immediately (functional semantics) while the cycle accounting mirrors the
// hardware's DQM schedules.
type MMS struct {
	cfg       Config
	Scheduler *InternalScheduler
	DQM       *DQM
	DMC       *DMC
	Seg       *Segmentation
	Reasm     *Reassembly
}

// New builds an MMS.
func New(cfg Config) (*MMS, error) {
	cfg = cfg.withDefaults()
	qm, err := queue.New(queue.Config{NumQueues: cfg.NumQueues, NumSegments: cfg.NumSegments})
	if err != nil {
		return nil, err
	}
	sched, err := NewInternalScheduler(cfg.Ports, cfg.FIFODepth, cfg.Priorities)
	if err != nil {
		return nil, err
	}
	dqm := NewDQM(qm)
	m := &MMS{
		cfg:       cfg,
		Scheduler: sched,
		DQM:       dqm,
		DMC:       NewDMC(cfg.DataBanks),
		Seg:       &Segmentation{qm: qm},
		Reasm:     &Reassembly{qm: qm},
	}
	return m, nil
}

// Config returns the effective configuration.
func (m *MMS) Config() Config { return m.cfg }

// Queues exposes the functional queue engine (read-mostly helpers for
// examples and tests).
func (m *MMS) Queues() *queue.Manager { return m.DQM.qm }

// Do executes one command functionally and returns its response with the
// Table 4 cycle cost.
func (m *MMS) Do(req Request) (Response, error) {
	return m.DQM.Execute(req)
}

// Table4 returns the measured execution latency of every command, derived
// by scheduling each command's micro-program — the reproduction of Table 4.
func Table4() map[Command]int {
	out := make(map[Command]int, int(numCommands))
	for _, c := range Commands() {
		out[c] = c.Cycles()
	}
	return out
}

// OpsPerSecond returns the sustained command rate for a command mix with
// the given mean execution latency in cycles ("This latency defines the
// time interval between two successive commands; in other words it states
// the MMS processing rate").
func OpsPerSecond(meanExecCycles float64) float64 {
	if meanExecCycles <= 0 {
		panic("core: non-positive mean execution latency")
	}
	return ClockMHz * 1e6 / meanExecCycles
}

// ThroughputGbps converts a segment-command rate into data throughput
// (each operation moves one 64-byte segment).
func ThroughputGbps(opsPerSecond float64) float64 {
	return opsPerSecond * queue.SegmentBytes * 8 / 1e9
}

// HeadlineThroughputGbps is the paper's headline number: the forwarding mix
// (one Enqueue and one Dequeue per segment) averages 10.5 cycles per
// command, which at 125 MHz supports ~12 Mops/s and ~6.1 Gbps.
func HeadlineThroughputGbps() float64 {
	mean := float64(CmdEnqueue.Cycles()+CmdDequeue.Cycles()) / 2
	return ThroughputGbps(OpsPerSecond(mean))
}

// DQM is the Data Queue Manager: it "organizes the incoming packets into
// queues. It handles and updates the data structures kept in the Pointer
// memory." Functionally it drives the queue engine; its cycle cost per
// command is the micro-program schedule length.
type DQM struct {
	qm         *queue.Manager
	execCycles uint64 // cumulative execution cycles
	executed   uint64 // commands executed
}

// NewDQM wraps a queue engine.
func NewDQM(qm *queue.Manager) *DQM { return &DQM{qm: qm} }

// Executed returns the command count and cumulative execution cycles.
func (d *DQM) Executed() (commands, cycles uint64) { return d.executed, d.execCycles }

// Execute runs one command functionally and charges its micro-program.
func (d *DQM) Execute(req Request) (Response, error) {
	resp := Response{Cmd: req.Cmd, ExecCycles: req.Cmd.Cycles()}
	var err error
	switch req.Cmd {
	case CmdEnqueue:
		resp.Seg, err = d.qm.Enqueue(req.Queue, req.Payload, req.EOP)
	case CmdRead:
		resp.Info, resp.Payload, err = d.qm.ReadHead(req.Queue)
	case CmdOverwrite:
		err = d.qm.Overwrite(req.Queue, req.Payload)
	case CmdMove:
		resp.Moved, err = d.qm.MovePacket(req.Queue, req.Dest)
	case CmdDelete:
		err = d.qm.DeleteSegment(req.Queue)
	case CmdOverwriteSegLen:
		err = d.qm.OverwriteLength(req.Queue, req.Length)
	case CmdDequeue:
		resp.Info, resp.Payload, err = d.qm.Dequeue(req.Queue)
		resp.Seg = resp.Info.Seg
	case CmdOverwriteSegLenMove:
		resp.Moved, err = d.qm.OverwriteLengthAndMove(req.Queue, req.Dest, req.Length)
	case CmdOverwriteSegMove:
		resp.Moved, err = d.qm.OverwriteAndMove(req.Queue, req.Dest, req.Payload)
	default:
		return Response{}, fmt.Errorf("core: unknown command %v", req.Cmd)
	}
	if err != nil {
		return Response{}, err
	}
	d.executed++
	d.execCycles += uint64(resp.ExecCycles)
	return resp, nil
}

// Segmentation is the MMS ingress block: it cuts packets into 64-byte
// segments and enqueues them on a flow queue.
type Segmentation struct {
	qm       *queue.Manager
	packets  uint64
	segments uint64
}

// Push segments data onto flow q. It returns the segment count.
func (s *Segmentation) Push(q queue.QueueID, data []byte) (int, error) {
	n, err := s.qm.EnqueuePacket(q, data)
	if err != nil {
		return 0, err
	}
	s.packets++
	s.segments += uint64(n)
	return n, nil
}

// Stats returns cumulative packet and segment counts.
func (s *Segmentation) Stats() (packets, segments uint64) { return s.packets, s.segments }

// Reassembly is the MMS egress block: it dequeues a full packet from a flow
// queue and rebuilds the byte stream.
type Reassembly struct {
	qm       *queue.Manager
	packets  uint64
	segments uint64
}

// Pop reassembles and removes the packet at the head of flow q.
func (r *Reassembly) Pop(q queue.QueueID) ([]byte, int, error) {
	data, n, err := r.qm.DequeuePacket(q)
	if err != nil {
		return nil, 0, err
	}
	r.packets++
	r.segments += uint64(n)
	return data, n, nil
}

// Stats returns cumulative packet and segment counts.
func (r *Reassembly) Stats() (packets, segments uint64) { return r.packets, r.segments }
