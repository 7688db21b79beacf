package ddr

// The memory-access vocabulary the controller schedules: operation kinds,
// ports and request records. The paper's DDR analysis (Section 3) considers
// aggregate traffic from four ports — "a write and a read port from/to the
// network, a write and a read port from/to an internal processing unit" —
// issuing 64-byte block accesses. These types describe exactly that
// traffic.

import "fmt"

// Op is a memory operation direction.
type Op uint8

const (
	// Read transfers a block from memory to the requester.
	Read Op = iota
	// Write transfers a block from the requester to memory.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Port identifies one of the request sources feeding a memory controller.
// The canonical configuration from the paper is four ports; see PaperPorts.
type Port uint8

// The four-port configuration used throughout the paper's Section 3 analysis.
const (
	NetWrite Port = iota // packets arriving from the network
	NetRead              // packets departing to the network
	CPUWrite             // processing unit writing back
	CPURead              // processing unit reading
	NumPaperPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case NetWrite:
		return "net-wr"
	case NetRead:
		return "net-rd"
	case CPUWrite:
		return "cpu-wr"
	case CPURead:
		return "cpu-rd"
	default:
		return fmt.Sprintf("port(%d)", uint8(p))
	}
}

// Dir returns the operation direction a paper port issues: the two write
// ports issue writes, the two read ports issue reads.
func (p Port) Dir() Op {
	if p == NetWrite || p == CPUWrite {
		return Write
	}
	return Read
}

// Request is one block access presented to a memory controller.
type Request struct {
	Port Port   // issuing port
	Op   Op     // direction
	Bank int    // target DRAM bank
	Addr uint32 // block-aligned address (used by functional models)
}

// String implements fmt.Stringer.
func (r Request) String() string {
	return fmt.Sprintf("%s %s bank=%d addr=%#x", r.Port, r.Op, r.Bank, r.Addr)
}

// FIFO is a bounded queue of requests, modeling the per-port pending-access
// FIFOs in front of a memory scheduler. A zero capacity means unbounded.
type FIFO struct {
	buf []Request
	cap int
}

// NewFIFO returns a FIFO holding at most capacity requests
// (0 means unbounded).
func NewFIFO(capacity int) *FIFO {
	return &FIFO{cap: capacity}
}

// Len returns the number of queued requests.
func (f *FIFO) Len() int { return len(f.buf) }

// Full reports whether the FIFO cannot accept another request.
func (f *FIFO) Full() bool { return f.cap > 0 && len(f.buf) >= f.cap }

// Push appends r. It reports false (and drops nothing) if the FIFO is full.
func (f *FIFO) Push(r Request) bool {
	if f.Full() {
		return false
	}
	f.buf = append(f.buf, r)
	return true
}

// Peek returns the head request without removing it.
// The boolean is false if the FIFO is empty.
func (f *FIFO) Peek() (Request, bool) {
	if len(f.buf) == 0 {
		return Request{}, false
	}
	return f.buf[0], true
}

// At returns the i-th queued request (0 = head). It panics if i is out of
// range; callers index within Len().
func (f *FIFO) At(i int) Request { return f.buf[i] }

// Remove deletes the i-th queued request (0 = head), preserving the order of
// the remaining requests. It panics if i is out of range.
func (f *FIFO) Remove(i int) Request {
	r := f.buf[i]
	if i == 0 {
		f.Pop()
		return r
	}
	f.buf = append(f.buf[:i], f.buf[i+1:]...)
	return r
}

// Pop removes and returns the head request.
// The boolean is false if the FIFO is empty.
func (f *FIFO) Pop() (Request, bool) {
	if len(f.buf) == 0 {
		return Request{}, false
	}
	r := f.buf[0]
	// Shift-free pop: reslice, compacting occasionally to bound growth.
	f.buf = f.buf[1:]
	if len(f.buf) == 0 {
		f.buf = nil
	} else if cap(f.buf) > 64 && len(f.buf) <= cap(f.buf)/4 {
		f.buf = append([]Request(nil), f.buf...)
	}
	return r, true
}
