package queue

// The reference model every model-based test in this package runs on; the
// harness (fuzz_test.go) drives it beside real managers. It is plain Go
// over lists, the way Section 6 defines the MMS: a queue is a slice of
// segments, each 64 bytes of memory, a length and an EOP flag, and a packet
// is the segments through the next EOP. It knows nothing of runs, links or
// words. One model serves every manager on a pool: per manager its queues,
// caps and tracking switch; for the pool the lent count, from which the
// free count follows. On New's one-cache store it also knows the free
// store (mStore), so it names the segment every command takes and the
// order freed segments come back in.

import (
	"slices"

	"npqm/internal/segstore"
)

// mSeg is one queued segment.
type mSeg struct {
	mem   [SegmentBytes]byte
	len   int
	known int // bytes of mem the model vouches for: a reservation's tail slack is never cleared
	eop   bool
	h     int32 // the segment's handle when the model knows the store, else -1
}

// mMgr is one manager's queue table.
type mMgr struct {
	queues   [][]mSeg
	limits   []int
	tracking bool
	whole    uint64 // packets built on a whole reused chain (FillWhole), when the model knows the store
}

type model struct {
	ms    []mMgr
	pool  int
	lent  int
	store *mStore // nil on a shared store
}

// newModel is a pool of pool segments under n managers of nq queues;
// private is New's store, whose free store the model keeps.
func newModel(n, nq, pool int, private bool) *model {
	mo := &model{ms: make([]mMgr, n), pool: pool}
	for k := range mo.ms {
		mo.ms[k] = mMgr{queues: make([][]mSeg, nq), limits: make([]int, nq)}
	}
	if private {
		all := make([]int32, pool)
		for i := range all {
			all[i] = int32(i)
		}
		mo.store = &mStore{}
		mo.store.depot[0] = [][]int32{all}
	}
	return mo
}

func (mo *model) free() int {
	n := mo.pool - mo.lent
	for _, mm := range mo.ms {
		for _, q := range mm.queues {
			n -= len(q)
		}
	}
	return n
}

// take gives new segments their handles, in the order the store hands them
// out, and reports whether a packet's came as a whole chain of its size.
func (mo *model) take(segs []mSeg, packet bool) (whole bool) {
	if mo.store == nil {
		return false
	}
	var hs []int32
	if packet && len(segs) > 1 {
		hs, whole = mo.store.chain(len(segs))
	}
	if !whole {
		hs = mo.store.take(len(segs))
	}
	for i := range segs {
		segs[i].h = hs[i]
	}
	return whole
}

// give is a queue command's FreeN of one chain; lendBack a lent batch's
// return, of chains of g segments each (0: mixed).
func (mo *model) give(segs []mSeg) {
	if mo.store != nil {
		mo.store.free(handles(segs))
	}
}

func (mo *model) lendBack(segs []mSeg, g int) {
	mo.lent -= len(segs)
	if mo.store != nil {
		mo.store.lendBack(handles(segs), g)
	}
}

func handles(segs []mSeg) []int32 {
	hs := make([]int32, len(segs))
	for i, s := range segs {
		hs[i] = s.h
	}
	return hs
}

func bytesOf(segs []mSeg) (n int) {
	for _, s := range segs {
		n += s.len
	}
	return n
}

// queue is queue q, or why there is none.
func (mm *mMgr) queue(q int) (*[]mSeg, error) {
	if q < 0 || q >= len(mm.queues) {
		return nil, ErrBadQueue
	}
	return &mm.queues[q], nil
}

// packet is the segment count of the packet at the head of segs, or why
// there is none.
func packet(segs []mSeg) (int, error) {
	if err := front(segs); err != nil {
		return 0, err
	}
	for i, s := range segs {
		if s.eop {
			return i + 1, nil
		}
	}
	return 0, ErrNoPacket
}

// front is why a single-segment command finds no head in segs, if it does
// not.
func front(segs []mSeg) error {
	if len(segs) == 0 {
		return ErrQueueEmpty
	}
	return nil
}

// admit is the cap: may n more segments join q?
func (mm *mMgr) admit(q, n int) error {
	if l := mm.limits[q]; l != 0 && len(mm.queues[q])+n > l {
		return ErrQueueLimit
	}
	return nil
}

// longest is the queue holding the most segments, the lowest on a tie.
func (mm *mMgr) longest() (q, n int) {
	for i, s := range mm.queues {
		if len(s) > n {
			q, n = i, len(s)
		}
	}
	return q, n
}

// overwrite is Overwrite of q's head with p or, p nil, OverwriteLength
// to n.
func (mm *mMgr) overwrite(q int, p []byte, n int) error {
	s, err := mm.queue(q)
	if err != nil {
		return err
	}
	if len(*s) == 0 {
		return ErrQueueEmpty
	}
	if p != nil {
		n = len(p)
	}
	if n < 1 || n > SegmentBytes {
		return ErrBadLength
	}
	hd := &(*s)[0]
	if p != nil {
		hd.mem, hd.known = [SegmentBytes]byte{}, SegmentBytes
		copy(hd.mem[:], p)
	}
	hd.len = n
	return nil
}

// move is MovePacket: the head packet of from to the tail of to (its own
// tail when from == to).
func (mm *mMgr) move(from, to int) (int, error) {
	src, err := mm.queue(from)
	if err != nil {
		return 0, err
	}
	if _, err := mm.queue(to); err != nil {
		return 0, err
	}
	n, err := packet(*src)
	if err != nil {
		return 0, err
	}
	if from != to {
		if err := mm.admit(to, n); err != nil {
			return 0, err
		}
	}
	pkt := slices.Clone((*src)[:n])
	*src = (*src)[n:]
	mm.queues[to] = append(mm.queues[to], pkt...)
	return n, nil
}

// mStore is New's store: one cache over one pool-sized magazine, which
// never spills to the depot. fifo is the cache's allocation side followed
// by its free side: loose segments leave from its head, and a loose free (a
// chain of one, or of more than MaxGrain segments) joins its tail. bins[g]
// holds whole g-segment chains, the next to leave first, and a chain of
// 2…MaxGrain segments a queue command frees joins its bin's front.
// depot[g] is the depot's stack of grain g, top last: the pool starts
// there, and lent chains (views, aborted reservations) come back there.
type mStore struct {
	fifo  []int32
	bins  [segstore.MaxGrain + 1][][]int32
	depot [segstore.MaxGrain + 1][][]int32
}

// grain is the bin a chain of n segments goes to, 0 for none.
func grain(n int) int {
	if n >= 2 && n <= segstore.MaxGrain {
		return n
	}
	return 0
}

func pop(stack *[][]int32) []int32 {
	top := (*stack)[len(*stack)-1]
	*stack = (*stack)[:len(*stack)-1]
	return top
}

// take is AllocN of n segments the caller knows are free. An empty fifo
// refills from the depot's general stack, else by breaking the largest
// bin, else from the largest grain's depot stack.
func (st *mStore) take(n int) []int32 {
	var out []int32
	for len(out) < n {
		if len(st.fifo) == 0 {
			st.refill()
		}
		k := min(n-len(out), len(st.fifo))
		out = append(out, st.fifo[:k]...)
		st.fifo = st.fifo[k:]
	}
	return out
}

func (st *mStore) refill() {
	if len(st.depot[0]) > 0 {
		st.fifo = pop(&st.depot[0])
		return
	}
	for g := segstore.MaxGrain; g >= 2; g-- {
		if len(st.bins[g]) > 0 {
			st.fifo, st.bins[g] = slices.Concat(st.bins[g]...), nil
			return
		}
	}
	for g := segstore.MaxGrain; g >= 2; g-- {
		if len(st.depot[g]) > 0 {
			st.fifo = pop(&st.depot[g])
			return
		}
	}
	panic("model: the store is dry")
}

// chain is AllocChain: the front chain of bin n, refilled from the depot's
// stack of grain n.
func (st *mStore) chain(n int) ([]int32, bool) {
	g := grain(n)
	if g == 0 {
		return nil, false
	}
	if len(st.bins[g]) == 0 {
		if len(st.depot[g]) == 0 {
			return nil, false
		}
		for mag := pop(&st.depot[g]); len(mag) > 0; mag = mag[g:] {
			st.bins[g] = append(st.bins[g], mag[:g:g])
		}
	}
	c := st.bins[g][0]
	st.bins[g] = st.bins[g][1:]
	return c, true
}

// free is FreeN of one chain.
func (st *mStore) free(c []int32) {
	if g := grain(len(c)); g != 0 {
		st.bins[g] = append([][]int32{c}, st.bins[g]...)
	} else {
		st.fifo = append(st.fifo, c...)
	}
}

// lendBack is ReturnLentChains: a batch of chains of g segments each onto
// the depot's stack of that grain, or its general stack.
func (st *mStore) lendBack(batch []int32, g int) {
	if g = grain(g); g != 0 && len(batch)%g != 0 {
		g = 0
	}
	st.depot[g] = append(st.depot[g], batch)
}
