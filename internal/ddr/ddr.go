// Package ddr implements the behavioral DDR-SDRAM model from Section 3 of
// the paper, including both memory-access schedulers whose throughput loss is
// compared in Table 1.
//
// # Timing model
//
// The paper's device is a 64-bit DDR DIMM at 100 MHz double-clocked:
//
//   - one 64-byte block access can be inserted every 4 memory clocks, i.e.
//     every 40 ns — this is the "access cycle";
//   - a bank that accepts an access stays busy for the bank-precharge window
//     of 160 ns = 4 access cycles, so a new access to the same bank can start
//     at the earliest 4 access cycles after the previous one;
//   - write access delay is 40 ns and read access delay is 60 ns, so a write
//     issued back-to-back after a read collides with the tail of the read's
//     data phase and must be delayed (footnote 2 of the paper).
//
// The model advances in 20 ns half-slots (half an access cycle), the finest
// granularity the paper's delays require: an access occupies 2 half-slots,
// a bank stays busy for 8, and the write-after-read turnaround costs 1
// (60 ns - 40 ns = 20 ns of data-bus overlap).
//
// # Schedulers
//
// FCFSRoundRobin serializes the four ports' accesses in fixed round-robin
// order and stalls on every bank conflict (the "No Optimization" columns of
// Table 1). Reorder keeps one FIFO per port and on each access cycle issues
// the first head-of-FIFO request, in round-robin order among eligible ports,
// whose bank is not busy; if no head is eligible the access cycle is lost to
// a no-op (the "Optimization" columns). Bank availability is derived from
// the access history of the last 3 access cycles, exactly as the paper
// describes ("it remembers the last 3 accesses").
package ddr

import (
	"fmt"

	"npqm/internal/xrand"
)

// Paper-fixed timing constants for the DDR DIMM of Section 3.
const (
	// HalfSlotNs is the model's base time unit.
	HalfSlotNs = 20
	// AccessHalfSlots is the bus occupancy of one 64-byte access (40 ns).
	AccessHalfSlots = 2
	// BankBusyHalfSlots is how long a bank stays busy after accepting an
	// access (160 ns bank-precharge window).
	BankBusyHalfSlots = 8
	// TurnaroundHalfSlots is the extra delay of a write issued back-to-back
	// after a read (read delay 60 ns - write delay 40 ns).
	TurnaroundHalfSlots = 1
	// ReadDelayNs and WriteDelayNs are the paper's access delays.
	ReadDelayNs  = 60
	WriteDelayNs = 40
	// BlockBytes is the transfer size of one access.
	BlockBytes = 64
	// PeakGbps is the peak throughput of the modeled DIMM
	// (64 bits x 200 Mb/s/pin = 12.8 Gbps).
	PeakGbps = 12.8
)

// SchedulerKind selects the access scheduler.
type SchedulerKind int

const (
	// FCFSRoundRobin serializes the four ports in round-robin order with
	// head-of-line blocking ("No Optimization" in Table 1).
	FCFSRoundRobin SchedulerKind = iota
	// Reorder picks any non-conflicting head-of-FIFO access, round-robin
	// among eligible ports ("Optimization" in Table 1).
	Reorder
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case FCFSRoundRobin:
		return "fcfs-round-robin"
	case Reorder:
		return "reorder"
	default:
		return fmt.Sprintf("scheduler(%d)", int(k))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	// Banks is the number of DRAM banks (the paper sweeps 1..16).
	Banks int
	// Scheduler selects the access scheduler under test.
	Scheduler SchedulerKind
	// RWInterleave enables the write-after-read turnaround penalty
	// (the "+ write-read interleaving" columns of Table 1).
	RWInterleave bool
	// LookAhead is how deep into each port FIFO the Reorder scheduler may
	// search for an eligible access. The paper's scheduler considers only
	// FIFO heads (LookAhead = 1, the default); larger values are an
	// ablation of a more aggressive out-of-order controller.
	LookAhead int
}

func (c *Config) lookAhead() int {
	if c.LookAhead <= 0 {
		return 1
	}
	return c.LookAhead
}

// Result summarizes a simulation run. All stall accounting is in half-slots
// (20 ns units); Loss is the paper's Table 1 metric.
type Result struct {
	ElapsedHalfSlots uint64  // total simulated time
	Issued           uint64  // useful accesses performed
	ConflictStalls   uint64  // half-slots lost to bank conflicts
	TurnaroundStalls uint64  // half-slots lost to write-after-read turnaround
	Utilization      float64 // fraction of time the data bus transferred data
	Loss             float64 // 1 - Utilization
}

// GoodputGbps returns the achieved data throughput implied by the run.
func (r Result) GoodputGbps() float64 { return PeakGbps * r.Utilization }

// portOrder is the fixed serialization order of the four paper ports,
// as enumerated in the paper's footnote 3: "a write and a read port from/to
// the network, a write and a read port from/to an internal processing unit".
var portOrder = [4]Port{NetWrite, NetRead, CPUWrite, CPURead}

// Controller is the DDR controller model. Time advances as scheduling
// decisions are made; drive it either with RunSaturated (Table 1) or by
// offering requests and calling Step from a higher-level model.
type Controller struct {
	cfg        Config
	fifos      [4]*FIFO
	now        uint64   // current time in half-slots
	bankFreeAt []uint64 // per bank: first half-slot a new access may start
	lastOp     Op
	lastIssue  uint64 // issue time of the last access
	hasLast    bool
	rrPtr      int // round-robin pointer over ports
	res        Result
}

// NewController returns a controller for the given configuration.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("ddr: Banks must be positive, got %d", cfg.Banks)
	}
	c := &Controller{cfg: cfg, bankFreeAt: make([]uint64, cfg.Banks)}
	for i := range c.fifos {
		c.fifos[i] = NewFIFO(0)
	}
	return c, nil
}

// Offer enqueues a request on its port's FIFO.
func (c *Controller) Offer(r Request) {
	if r.Bank < 0 || r.Bank >= c.cfg.Banks {
		panic(fmt.Sprintf("ddr: bank %d out of range [0,%d)", r.Bank, c.cfg.Banks))
	}
	c.fifos[int(r.Port)%4].Push(r)
}

// Pending returns the total number of queued requests.
func (c *Controller) Pending() int {
	n := 0
	for _, f := range c.fifos {
		n += f.Len()
	}
	return n
}

// NowNs returns the current simulation time in nanoseconds.
func (c *Controller) NowNs() float64 { return float64(c.now) * HalfSlotNs }

// Result returns the statistics accumulated so far.
func (c *Controller) Result() Result {
	r := c.res
	r.ElapsedHalfSlots = c.now
	if c.now > 0 {
		r.Utilization = float64(r.Issued*AccessHalfSlots) / float64(c.now)
	}
	r.Loss = 1 - r.Utilization
	return r
}

// turnaroundAt reports whether a request of the given op issued at time t
// would collide with the data phase of the previous access.
func (c *Controller) turnaroundAt(op Op, t uint64) bool {
	return c.cfg.RWInterleave && c.hasLast && op == Write &&
		c.lastOp == Read && t == c.lastIssue+AccessHalfSlots
}

func (c *Controller) issue(r Request, t uint64) {
	c.bankFreeAt[r.Bank] = t + BankBusyHalfSlots
	c.lastOp = r.Op
	c.lastIssue = t
	c.hasLast = true
	c.now = t + AccessHalfSlots
	c.res.Issued++
}

// Step makes one scheduling decision, advancing simulated time.
// It reports whether an access was issued (false means the controller is
// idle for lack of pending requests, or lost an access cycle to a no-op in
// Reorder mode).
func (c *Controller) Step() bool {
	switch c.cfg.Scheduler {
	case FCFSRoundRobin:
		return c.stepFCFS()
	case Reorder:
		return c.stepReorder()
	default:
		panic("ddr: unknown scheduler")
	}
}

// stepFCFS serves the round-robin port pointer with head-of-line blocking:
// the head access waits for its bank, however long that takes.
func (c *Controller) stepFCFS() bool {
	for scan := 0; scan < 4; scan++ {
		idx := (c.rrPtr + scan) % 4
		f := c.fifos[int(portOrder[idx])]
		req, ok := f.Peek()
		if !ok {
			continue
		}
		t := c.now
		if free := c.bankFreeAt[req.Bank]; free > t {
			c.res.ConflictStalls += free - t
			t = free
		}
		if c.turnaroundAt(req.Op, t) {
			c.res.TurnaroundStalls += TurnaroundHalfSlots
			t += TurnaroundHalfSlots
		}
		f.Pop()
		c.issue(req, t)
		c.rrPtr = (idx + 1) % 4
		return true
	}
	return false // nothing pending anywhere
}

// stepReorder checks the pending accesses of the four ports for conflicts
// and issues one that addresses a non-busy bank, round-robin among eligible
// ports. If none is eligible it sends a no-operation, losing one access
// cycle.
func (c *Controller) stepReorder() bool {
	depth := c.cfg.lookAhead()
	for scan := 0; scan < 4; scan++ {
		idx := (c.rrPtr + scan) % 4
		f := c.fifos[int(portOrder[idx])]
		req, pos, ok := peekEligible(f, depth, c.bankFreeAt, c.now)
		if !ok {
			continue
		}
		t := c.now
		// The scheduler reorders only around bank conflicts; it is not
		// aware of bus turnaround, so an eligible write following a read
		// still pays the 20 ns penalty.
		if c.turnaroundAt(req.Op, t) {
			c.res.TurnaroundStalls += TurnaroundHalfSlots
			t += TurnaroundHalfSlots
		}
		removeAt(f, pos)
		c.issue(req, t)
		c.rrPtr = (idx + 1) % 4
		return true
	}
	// No eligible access: no-op, losing one access cycle — but only if work
	// was actually pending (otherwise the controller is simply idle).
	if c.Pending() > 0 {
		c.res.ConflictStalls += AccessHalfSlots
		c.now += AccessHalfSlots
		return false
	}
	return false
}

// peekEligible returns the first of the first depth entries of f whose bank
// is free at time now.
func peekEligible(f *FIFO, depth int, bankFreeAt []uint64, now uint64) (Request, int, bool) {
	n := f.Len()
	if n < depth {
		depth = n
	}
	for i := 0; i < depth; i++ {
		r := f.At(i)
		if bankFreeAt[r.Bank] <= now {
			return r, i, true
		}
	}
	return Request{}, 0, false
}

// removeAt removes the i-th entry of f preserving order of the rest.
func removeAt(f *FIFO, i int) {
	f.Remove(i)
}

// RunSaturated reproduces the Table 1 experiment: all four ports always have
// a pending access to a uniformly random bank ("random bank access patterns
// were simulated as a realistic common case for typical network applications
// incorporating a large number of simultaneously active queues"). It makes
// the given number of scheduling decisions and returns the measured loss.
func RunSaturated(cfg Config, seed uint64, decisions int) (Result, error) {
	c, err := NewController(cfg)
	if err != nil {
		return Result{}, err
	}
	rng := xrand.New(seed)
	depth := cfg.lookAhead()
	if depth < 2 {
		depth = 2
	}
	for i := 0; i < decisions; i++ {
		for _, p := range portOrder {
			f := c.fifos[int(p)]
			for f.Len() < depth {
				c.Offer(Request{Port: p, Op: p.Dir(), Bank: rng.Intn(cfg.Banks)})
			}
		}
		c.Step()
	}
	return c.Result(), nil
}
