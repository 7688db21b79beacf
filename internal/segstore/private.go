package segstore

import "fmt"

// Private is a single-owner segment pool with a FIFO free list threaded
// through the slab's Next array — allocate from the head, return at the
// tail — exactly as the seed queue manager kept it. FIFO order matters to
// the timed models: it cycles segment reuse through the whole pool, which
// stripes the data memory across DDR banks instead of hammering the most
// recently freed segment. Not safe for concurrent use.
type Private struct {
	view  View
	nseg  int
	head  int32
	tail  int32
	count int32
	lent  int32
}

// NewPrivate builds a private pool with every segment on the free list in
// ascending order.
func NewPrivate(cfg Config) (*Private, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Private{view: newView(cfg), nseg: cfg.NumSegments}
	for i := 0; i < cfg.NumSegments-1; i++ {
		p.view.Next[i] = int32(i + 1)
	}
	p.view.Next[cfg.NumSegments-1] = nilSeg
	p.head = 0
	p.tail = int32(cfg.NumSegments - 1)
	p.count = int32(cfg.NumSegments)
	return p, nil
}

// View returns the private slab arrays.
func (p *Private) View() View { return p.view }

// NumSegments returns the pool size.
func (p *Private) NumSegments() int { return p.nseg }

// FreeSegments returns the free-list population.
func (p *Private) FreeSegments() int { return int(p.count) }

// Avail equals FreeSegments: a private pool has no unreachable segments.
func (p *Private) Avail() int { return int(p.count) }

// Shared reports that this pool has a single owner.
func (p *Private) Shared() bool { return false }

// AllocN pops up to len(dst) segments off the free-list head in one walk
// ("Dequeue Free List" in the paper's operation breakdown), preserving FIFO
// reuse order: a run comes out in exactly the order one-segment calls would
// have produced.
func (p *Private) AllocN(dst []int32) int {
	s := p.head
	got := 0
	for got < len(dst) && s != nilSeg {
		dst[got] = s
		got++
		s = p.view.Next[s]
	}
	p.head = s
	if s == nilSeg {
		p.tail = nilSeg
	}
	p.count -= int32(got)
	return got
}

// FreeN appends a pre-linked chain of n segments (head→…→tail through
// View.Next) at the free-list tail in O(1) ("Enqueue Free List"). The chain
// joins the FIFO in its own link order, so reuse still cycles through the
// whole pool — the property the timed models' DDR bank-striping tables
// depend on.
func (p *Private) FreeN(head, tail, n int32) {
	if n <= 0 {
		return
	}
	p.view.Next[tail] = nilSeg
	if p.tail == nilSeg {
		p.head = head
	} else {
		p.view.Next[p.tail] = head
	}
	p.tail = tail
	p.count += n
}

// Lend adjusts the lent population.
func (p *Private) Lend(n int32) { p.lent += n }

// ReturnLent returns a lent chain to the FIFO free list. A private pool is
// single-owner by contract, so unlike the shared store this is not safe
// from arbitrary goroutines — but a private Manager has no concurrent
// consumers to begin with.
func (p *Private) ReturnLent(head, tail, n int32) {
	if n <= 0 {
		return
	}
	p.FreeN(head, tail, n)
	p.lent -= n
}

// Lent returns the lent population.
func (p *Private) Lent() int { return int(p.lent) }

// CheckInvariants walks the free list, verifying it is acyclic, correctly
// counted, every member is in StateFree, and the tail pointer matches the
// last element.
func (p *Private) CheckInvariants() error {
	count := int32(0)
	last := nilSeg
	seen := make([]bool, p.nseg)
	for s := p.head; s != nilSeg; s = p.view.Next[s] {
		if s < 0 || int(s) >= p.nseg {
			return errChain("free list", 0, s)
		}
		if seen[s] {
			return fmt.Errorf("segstore: free list cycle at segment %d", s)
		}
		seen[s] = true
		if p.view.State[s] != StateFree {
			return errState("free list", s, p.view.State[s])
		}
		count++
		last = s
	}
	if count != p.count {
		return errCount("free list", int(count), int(p.count))
	}
	if p.tail != last {
		return fmt.Errorf("segstore: free tail pointer %d != last free element %d", p.tail, last)
	}
	if (p.head == nilSeg) != (p.tail == nilSeg) {
		return fmt.Errorf("segstore: free head/tail nil mismatch")
	}
	stateLent := int32(0)
	for _, st := range p.view.State {
		if st == StateLent {
			stateLent++
		}
	}
	if stateLent != p.lent {
		return fmt.Errorf("segstore: %d segments in StateLent, lent counter says %d", stateLent, p.lent)
	}
	return nil
}

func errChain(where string, i int, s int32) error {
	return fmt.Errorf("segstore: %s %d chain broken at segment %d", where, i, s)
}

func errDup(where string, s int32) error {
	return fmt.Errorf("segstore: segment %d appears twice in %s", s, where)
}

func errState(where string, s int32, state uint8) error {
	return fmt.Errorf("segstore: %s holds segment %d in state %d", where, s, state)
}

func errCount(where string, walked, counter int) error {
	return fmt.Errorf("segstore: %s holds %d segments, counter says %d", where, walked, counter)
}
