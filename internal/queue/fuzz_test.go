package queue

// One harness for queue.Manager: every command runs on a manager and on the
// reference model (model_test.go), and after every command everything the
// managers show is held to the model — returns and sentinels, every
// queued segment's length, EOP flag, payload and (on New's store) handle,
// Occupancy, Len, PacketLen, ReadHead, SegmentLimit, QueuedSegments,
// TotalBuffered, LongestQueue and the LongestLen mirror, FreeSegments,
// AvailSegments, LentSegments, FillWhole, and CheckInvariants of every
// manager and of the store. A view's or a writer's Range must also yield
// one slice per run its chain's words record (runSlices).
//
// It has two arms. The private arm is one manager on its own pool (New):
// the seed's FIFO free list, whose segment handles the model predicts. The
// shared arm is managers on their own caches of one segstore.Store, taking
// the commands in turn: freed chains pass through bins and grain stacks and
// come back whole to packets of other lengths (reuseChain), so a stale
// length, EOP, link or slack left in a reused chain shows up as a
// mismatch. FuzzRunCoding and FuzzManagerCommands decode bytes onto it; the
// scenario tests write their commands in Go (h.do(oEnqueue, q, bytes, eop)…).

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"npqm/internal/segstore"
)

// The commands, with their arguments; a missing argument reads 0.
const (
	oEnqueuePacket          = iota // q, bytes
	oDequeuePacket                 // q, form: DequeuePacket, …Append, …Into (form%3)
	oView                          // q, hold, retain: DequeuePacketView, released at once unless held
	oRelease                       // one: the oldest held view by Release, else each held once through a ViewReleaser
	oDeletePacket                  // q
	oReserve                       // q, bytes, then: 0 Abort, 1 Commit, 2 held open
	oSettle                        // i, commit: Commit or Abort open reservation i
	oEnqueue                       // q, bytes, eop
	oAppendHead                    // q, bytes, eop
	oDequeue                       // q
	oDeleteSegment                 // q
	oOverwrite                     // q, bytes
	oOverwriteLength               // q, n
	oMove                          // from, to
	oOverwriteAndMove              // from, to, bytes
	oOverwriteLengthAndMove        // from, to, n
	oTransfer                      // q, to: UnlinkHeadPacket, LinkPacketTail on the next manager, LinkPacketHead back if refused
	oLimit                         // q, limit: SetSegmentLimit
	oTracking                      // on: SetLongestTracking
	oPushOut                       // PushOutLongest
	oFlush                         // the manager's cache hands its segments to the depot (shared store only)
)

var opNames = strings.Fields(`EnqueuePacket DequeuePacket View Release DeletePacket Reserve Settle
	Enqueue AppendHead Dequeue DeleteSegment Overwrite OverwriteLength Move OverwriteAndMove
	OverwriteLengthAndMove Transfer Limit Tracking PushOut Flush`)

type harness struct {
	t      *testing.T
	ms     []*Manager
	mo     *model
	st     *segstore.Store // the shared store; nil for New's
	caches []*segstore.Cache
	k      int // the manager the next command runs on
	step   int
	what   string // the command running, for messages
	avail  int    // its manager's AvailSegments before it
	err    error  // the last command's error
	fill   byte
	feed   []byte // when set, the payload the next fresh returns
	held   []hView
	open   []hRes
	// racy: other owners allocate from the store meanwhile, so whether a
	// command finds free segments is theirs to decide, and the pool-wide
	// books are not this harness's to check.
	racy bool
}

// hView is a view the harness holds and the segments it carries.
type hView struct {
	v    PacketView
	refs int
	segs []mSeg
}

// hRes is an open reservation, its manager and the segments it commits.
type hRes struct {
	w     PacketWriter
	k     int
	segs  []mSeg
	whole bool
}

// newPrivate is the private arm: one manager of nq queues on its own pool.
func newPrivate(t *testing.T, nq, pool int) *harness {
	t.Helper()
	m, err := New(Config{NumQueues: nq, NumSegments: pool})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, ms: []*Manager{m}, mo: newModel(1, nq, pool, true)}
}

// newShared is the shared arm: n managers of nq queues, each on its own
// cache of one store with magazines of mag segments.
func newShared(t *testing.T, nq, pool, mag, n int) *harness {
	t.Helper()
	st, err := segstore.New(segstore.Config{NumSegments: pool, MagazineSize: mag})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, st: st, mo: newModel(n, nq, pool, false)}
	for range n {
		c := st.NewCache()
		m, err := NewWithStore(Config{NumQueues: nq}, c)
		if err != nil {
			t.Fatal(err)
		}
		h.ms, h.caches = append(h.ms, m), append(h.caches, c)
	}
	return h
}

// bothArms runs drive on the private arm, then on two managers sharing a
// store of 16-segment magazines, and settles each.
func bothArms(t *testing.T, nq, pool int, drive func(h *harness)) {
	for _, h := range []*harness{newPrivate(t, nq, pool), newShared(t, nq, pool, 16, 2)} {
		drive(h)
		h.finish()
	}
}

func FuzzManagerCommands(f *testing.F) {
	f.Add([]byte("\x00\x00\x64\x00\x01\xc8\x00\x02\x32\x01\x00\x00\x02\x00\x01\x04\x00\x00"))
	f.Add([]byte("\x03\x01\x3f\x00\x01\xff\x00\x01\xff\x00\x01\xff\x01\x01\x00\x04\x00\x00\x04\x00\x00"))
	f.Add([]byte("\x00\x00\x10\x00\x01\x10\x02\x00\x01\x02\x01\x01\x03\x00\x02\x00\x00\x01\x01\x00\x00"))
	f.Add([]byte("\x00\x07\x7f\x00\x07\x7f\x00\x07\x7f\x00\x06\x01\x04\x00\x00\x02\x07\x06\x01\x06\x00"))
	// Records are 3 bytes, opcode%5 then a and b, on 8 queues of a 48-segment
	// pool (so limits up to 63 reach the clamp), longest-queue tracking on:
	// 0 EnqueuePacket q=a%8 of 1+2b bytes, 1 DequeuePacket q=a%8,
	// 2 MovePacket a%8 → b%8, 3 SetSegmentLimit q=a%8 to b%64, 4 PushOutLongest.
	f.Fuzz(func(t *testing.T, data []byte) {
		bothArms(t, 8, 48, func(h *harness) {
			for range h.ms {
				h.do(oTracking, 1)
			}
			for i := 0; i+2 < len(data); i += 3 {
				a, b := int(data[i+1]), int(data[i+2])
				switch data[i] % 5 {
				case 0:
					h.do(oEnqueuePacket, a%8, 1+2*b)
				case 1:
					h.do(oDequeuePacket, a%8)
				case 2:
					h.do(oMove, a%8, b%8)
				case 3:
					h.do(oLimit, a%8, b%64)
				case 4:
					h.do(oPushOut)
				}
			}
		})
	})
}

// FuzzRunCoding drives every command on 4 queues of a 640-segment pool,
// whose fresh chains are long runs, so the commands that see or split a
// run meet them. Records are 3 bytes: opcode%24, a, b; q is a%4.
//
//	 0 EnqueuePacket q, 1+11b bytes       12 Enqueue q, 1+b%64 bytes, EOP if b ≥ 128
//	 1 EnqueuePacket q, 64·(200+b%100) B  13 OverwriteAndMove q → b%4, 1+(b>>2)%64 bytes
//	 2 DequeuePacket q, form b%3          14 OverwriteLengthAndMove q → b%4, 1+(b>>2)%64
//	 3 Dequeue q                          15 SetSegmentLimit q, b%64 (b ≥ 192: around the pool)
//	 4 DeleteSegment q                    16 SetLongestTracking b&1
//	 5 AppendHead q, as 12                17 PushOutLongest
//	 6 Overwrite q, 1+b%64 bytes          18 DequeuePacketView q, held, retained if b odd
//	 7 OverwriteLength q, 1+b%64          19 release held views: the oldest (b odd) or all
//	 8 ReservePacket q, 1+11(b>>1) bytes, 20 ReservePacket as 8, held open
//	   Commit if b odd, else Abort        21 settle open reservation a, Commit if b odd
//	 9 DequeuePacketView q, released      22 transfer q's head packet to b%4 of the next manager
//	10 MovePacket q → b%4                 23 Flush the manager's cache (shared arm)
//	11 DeletePacket q
//
// The seed corpus (testdata/fuzz/FuzzRunCoding) is named for what each seed
// reaches.
func FuzzRunCoding(f *testing.F) {
	const nq, pool = 4, 640
	f.Fuzz(func(t *testing.T, data []byte) {
		bothArms(t, nq, pool, func(h *harness) {
			for i := 0; i+2 < len(data); i += 3 {
				op, a, b := int(data[i])%24, int(data[i+1]), int(data[i+2])
				q, to := a%nq, b%nq
				switch op {
				case 0:
					h.do(oEnqueuePacket, q, 1+11*b)
				case 1:
					h.do(oEnqueuePacket, q, SegmentBytes*(200+b%100))
				case 2:
					h.do(oDequeuePacket, q, b)
				case 3:
					h.do(oDequeue, q)
				case 4:
					h.do(oDeleteSegment, q)
				case 5:
					h.do(oAppendHead, q, 1+b%SegmentBytes, b>>7)
				case 12:
					h.do(oEnqueue, q, 1+b%SegmentBytes, b>>7)
				case 6:
					h.do(oOverwrite, q, 1+b%SegmentBytes)
				case 7:
					h.do(oOverwriteLength, q, 1+b%SegmentBytes)
				case 8:
					h.do(oReserve, q, 1+11*(b>>1), b&1)
				case 20:
					h.do(oReserve, q, 1+11*(b>>1), 2)
				case 9:
					h.do(oView, q)
				case 10:
					h.do(oMove, q, to)
				case 11:
					h.do(oDeletePacket, q)
				case 13:
					h.do(oOverwriteAndMove, q, to, 1+(b>>2)%SegmentBytes)
				case 14:
					h.do(oOverwriteLengthAndMove, q, to, 1+(b>>2)%SegmentBytes)
				case 15:
					lim := b % 64
					if b >= 192 {
						lim = pool - 32 + b - 192
					}
					h.do(oLimit, q, lim)
				case 16:
					h.do(oTracking, b&1)
				case 17:
					h.do(oPushOut)
				case 18:
					h.do(oView, q, 1, b&1)
				case 19:
					h.do(oRelease, b&1)
				case 21:
					h.do(oSettle, a, b&1)
				case 22:
					h.do(oTransfer, q, to)
				case 23:
					h.do(oFlush)
				}
			}
		})
	})
}

// do runs one command on the manager whose turn it is and on the model,
// then checks the books.
func (h *harness) do(op int, args ...int) *harness {
	h.t.Helper()
	arg := func(i int) int {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	q, x, y := arg(0), arg(1), arg(2)
	m, mm := h.ms[h.k], &h.mo.ms[h.k]
	h.what = fmt.Sprintf("step %d, manager %d: %s%v", h.step, h.k, opNames[op], args)
	h.avail, h.err = m.AvailSegments(), nil
	switch op {
	case oEnqueuePacket:
		p := h.fresh(x)
		n, err := m.EnqueuePacket(QueueID(q), p)
		segs := split(p)
		if h.ok(h.room(q, len(segs), x <= 0), err) {
			h.eq("segments", n, len(segs))
			if h.mo.take(segs, true) {
				mm.whole++
			}
			mm.queues[q] = append(mm.queues[q], segs...)
		}
	case oDequeuePacket:
		var got []byte
		var n, asked int
		var err error
		switch x % 3 {
		case 0:
			got, n, err = m.DequeuePacket(QueueID(q))
		case 1:
			if got, n, err = m.DequeuePacketAppend(QueueID(q), []byte("pre")); err == nil {
				h.eq("prefix kept", bytes.HasPrefix(got, []byte("pre")), true)
				got = got[3:]
			}
		case 2:
			if got, n, err = m.DequeuePacketInto(QueueID(q), func(segs int) []byte { asked = segs; return nil }); err == nil {
				h.eq("segments asked for", asked, n)
			}
		}
		if segs := h.headPacket(q, err); segs != nil {
			h.eq("segments", n, len(segs))
			h.payload(got, segs)
			h.mo.give(segs)
		}
	case oView:
		v, err := m.DequeuePacketView(QueueID(q))
		segs := h.headPacket(q, err)
		if segs == nil {
			return h.done()
		}
		h.eq("view segments", v.Segments(), len(segs))
		h.eq("view bytes", v.Len(), bytesOf(segs))
		h.payload(v.AppendTo(nil), segs)
		h.runSlices(m, v.head, v.Range)
		if h.mo.store != nil {
			h.eq("view head", v.Head(), Seg(segs[0].h))
			h.eq("view end", v.End(), Seg(segs[len(segs)-1].h))
		}
		h.mo.lent += len(segs)
		h.eq("lent with the view out", m.LentSegments(), h.mo.lent)
		switch {
		case x == 0:
			v.Release()
			h.mo.lendBack(segs, len(segs))
		case y != 0:
			v.Retain()
			h.held = append(h.held, hView{v, 2, segs})
		default:
			h.held = append(h.held, hView{v, 1, segs})
		}
	case oRelease:
		h.release(q != 0)
	case oDeletePacket:
		n, err := m.DeletePacket(QueueID(q))
		if segs := h.headPacket(q, err); segs != nil {
			h.eq("segments", n, len(segs))
			h.mo.give(segs)
		}
	case oReserve:
		p := h.fresh(max(x, 0))
		w, err := m.ReservePacket(QueueID(q), x)
		segs := split(p)
		if !h.ok(h.room(q, len(segs), x <= 0), err) {
			return h.done()
		}
		h.eq("writer", [3]int{w.Segments(), w.Len(), int(w.Queue())}, [3]int{len(segs), x, q})
		off := 0
		w.Range(func(s []byte) bool { off += copy(s, p[off:]); return true })
		h.eq("bytes the writer exposed", off, x)
		h.runSlices(m, w.head, w.Range)
		segs[len(segs)-1].known = segs[len(segs)-1].len
		h.mo.lent += len(segs)
		r := hRes{w, h.k, segs, h.mo.take(segs, true)}
		if y < 2 {
			h.settle(&r, y == 1)
		} else {
			h.open = append(h.open, r)
		}
	case oSettle:
		if len(h.open) > 0 {
			i := q % len(h.open)
			r := h.open[i]
			h.open = slices.Delete(h.open, i, i+1)
			h.settle(&r, x != 0)
		}
	case oEnqueue, oAppendHead:
		p := h.fresh(max(x, 0))
		var s Seg
		var err error
		if op == oEnqueue {
			s, err = m.Enqueue(QueueID(q), p, y != 0)
		} else {
			s, err = m.AppendHead(QueueID(q), p, y != 0)
		}
		if h.ok(h.room(q, 1, x < 1 || x > SegmentBytes), err) {
			segs := split(p)
			segs[0].eop = y != 0
			h.mo.take(segs, false)
			if h.mo.store != nil {
				h.eq("segment taken", s, Seg(segs[0].h))
			}
			if op == oEnqueue {
				mm.queues[q] = append(mm.queues[q], segs[0])
			} else {
				mm.queues[q] = append(segs, mm.queues[q]...)
			}
		}
	case oDequeue, oDeleteSegment:
		var info SegInfo
		var got []byte
		var err error
		if op == oDequeue {
			info, got, err = m.Dequeue(QueueID(q))
		} else {
			err = m.DeleteSegment(QueueID(q))
		}
		want := h.headSeg(q)
		if h.ok(want, err) {
			hd := mm.queues[q][:1]
			if op == oDequeue {
				h.eq("segment", [2]int{info.Len, b2i(info.EOP)}, [2]int{hd[0].len, b2i(hd[0].eop)})
				h.payload(got, hd)
				if h.mo.store != nil {
					h.eq("segment handle", info.Seg, Seg(hd[0].h))
				}
			}
			mm.queues[q] = mm.queues[q][1:]
			h.mo.give(hd)
		}
	case oOverwrite:
		p := h.fresh(max(x, 0))
		h.overwriteMove(false, q, 0, p, 0, 0, m.Overwrite(QueueID(q), p))
	case oOverwriteLength:
		h.overwriteMove(false, q, 0, nil, x, 0, m.OverwriteLength(QueueID(q), x))
	case oOverwriteAndMove:
		p := h.fresh(max(y, 0))
		n, err := m.OverwriteAndMove(QueueID(q), QueueID(x), p)
		h.overwriteMove(true, q, x, p, 0, n, err)
	case oOverwriteLengthAndMove:
		n, err := m.OverwriteLengthAndMove(QueueID(q), QueueID(x), y)
		h.overwriteMove(true, q, x, nil, y, n, err)
	case oMove:
		n, err := m.MovePacket(QueueID(q), QueueID(x))
		want, werr := mm.move(q, x)
		if h.ok(werr, err) {
			h.eq("segments moved", n, want)
		}
	case oTransfer:
		h.transfer(q, x)
	case oLimit:
		err := m.SetSegmentLimit(QueueID(q), x)
		_, want := mm.queue(q)
		if want == nil && x < 0 {
			want = ErrBadLength
		}
		if h.ok(want, err) {
			mm.limits[q] = min(x, h.mo.pool)
		}
	case oTracking:
		m.SetLongestTracking(q != 0)
		mm.tracking = q != 0
	case oPushOut:
		vq, n, err := m.PushOutLongest()
		wq, l := mm.longest()
		var want error
		if l == 0 {
			want = ErrQueueEmpty
		}
		if h.ok(want, err) {
			wn, perr := packet(mm.queues[wq])
			if perr != nil {
				wn = 1 // no whole packet at the head: one segment goes
			}
			h.eq("push-out", [2]int{int(vq), n}, [2]int{wq, wn})
			h.mo.give(mm.queues[wq][:wn])
			mm.queues[wq] = mm.queues[wq][wn:]
		}
	case oFlush:
		if h.st != nil {
			h.caches[h.k].Flush()
		}
	default:
		h.t.Fatalf("unknown command %d", op)
	}
	return h.done()
}

// on hands the next command to manager k.
func (h *harness) on(k int) *harness {
	h.k = k
	return h
}

// done checks the books after a command and passes the turn on.
func (h *harness) done() *harness {
	h.t.Helper()
	h.check()
	h.step++
	h.k = (h.k + 1) % len(h.ms)
	return h
}

// is checks that the last command failed with want (nil: succeeded), for
// scripts that assert they reached what they are for.
func (h *harness) is(want error) *harness {
	h.t.Helper()
	if !errors.Is(h.err, want) || (want == nil) != (h.err == nil) {
		h.t.Fatalf("%s: err = %v, the script expects %v", h.what, h.err, want)
	}
	return h
}

// ok holds a command's error to the model's and reports success.
func (h *harness) ok(want, got error) bool {
	h.err = got
	if h.racy && (errors.Is(got, ErrNoFreeSegments) && want == nil || errors.Is(want, ErrNoFreeSegments) && got == nil) {
		want = got
	}
	return h.sentinel("err", want, got)
}

// sentinel holds an error a reader returned to the model's.
func (h *harness) sentinel(what string, want, got error) bool {
	if !errors.Is(got, want) || (want == nil) != (got == nil) {
		h.t.Fatalf("%s: %s = %v, the model says %v", h.what, what, got, want)
	}
	return got == nil
}

func (h *harness) eq(what string, got, want any) {
	if got != want {
		h.t.Fatalf("%s: %s = %v, the model says %v", h.what, what, got, want)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fresh is the next n bytes of payload: h.feed if a test set it, else
// the fill pattern.
func (h *harness) fresh(n int) []byte {
	if p := h.feed; p != nil {
		h.feed = nil
		return p
	}
	p := make([]byte, n)
	for i := range p {
		h.fill += 7
		p[i] = h.fill
	}
	return p
}

// split is packet p as segments, their handles not yet known.
func split(p []byte) []mSeg {
	out := make([]mSeg, (len(p)+SegmentBytes-1)/SegmentBytes)
	for i := range out {
		out[i].len = copy(out[i].mem[:], p[i*SegmentBytes:])
		out[i].known, out[i].h = SegmentBytes, -1
	}
	if len(out) > 0 {
		out[len(out)-1].eop = true
	}
	return out
}

// payload holds bytes read off the manager to the segments' payload, as
// far as the model vouches for it.
func (h *harness) payload(got []byte, segs []mSeg) {
	for i, s := range segs {
		n := min(s.len, s.known)
		if len(got) < s.len || !bytes.Equal(got[:n], s.mem[:n]) {
			h.t.Fatalf("%s: payload differs in segment %d of %d", h.what, i, len(segs))
		}
		got = got[s.len:]
	}
	h.eq("bytes past the packet", len(got), 0)
}

// runSlices checks that rng, a view's or a writer's Range over the
// nil-terminated chain at head, yields one slice per run the chain's words
// record (a run's first word carries its length, every other word none).
// The model knows nothing of runs, so this holds Range, which hops them,
// to the words the chain was built with.
func (h *harness) runSlices(m *Manager, head int32, rng func(func([]byte) bool)) {
	h.t.Helper()
	yielded, starts := 0, 0
	rng(func([]byte) bool { yielded++; return true })
	for s := head; s != nilSeg; s = m.next[s] {
		if m.seg[s]>>segstore.WordRun != 0 {
			starts++
		}
	}
	h.eq("slices Range yields, against the runs the words record", yielded, starts)
}

// room is the error a command owes that takes n new segments for q: a bad
// queue, a bad length, the cap, then a dry pool.
func (h *harness) room(q, n int, badLen bool) error {
	mm := &h.mo.ms[h.k]
	if _, err := mm.queue(q); err != nil {
		return err
	}
	if badLen {
		return ErrBadLength
	}
	if err := mm.admit(q, n); err != nil {
		return err
	}
	if n > h.avail {
		return ErrNoFreeSegments
	}
	return nil
}

// headPacket holds a packet command's error to the model's and, when it
// succeeded, takes the packet off the model's queue q.
func (h *harness) headPacket(q int, err error) []mSeg {
	mm := &h.mo.ms[h.k]
	s, want := mm.queue(q)
	n := 0
	if want == nil {
		n, want = packet(*s)
	}
	if !h.ok(want, err) {
		return nil
	}
	segs := (*s)[:n:n]
	*s = (*s)[n:]
	return segs
}

// headSeg is the error a single-segment command on q's head owes.
func (h *harness) headSeg(q int) error {
	s, err := h.mo.ms[h.k].queue(q)
	if err != nil {
		return err
	}
	return front(*s)
}

// overwriteMove checks Overwrite[Length] and, with move, the MovePacket from
// q to to that follows it: payload p, or length n when p is nil.
func (h *harness) overwriteMove(move bool, q, to int, p []byte, n, moved int, err error) {
	mm := &h.mo.ms[h.k]
	want := mm.overwrite(q, p, n)
	wantN := 0
	if want == nil && move {
		wantN, want = mm.move(q, to)
	}
	if h.ok(want, err) {
		h.eq("segments moved", moved, wantN)
	}
}

// release releases held views: the oldest by PacketView.Release (one), or
// every held view once through one ViewReleaser.
func (h *harness) release(one bool) {
	views := h.held
	if one {
		views = views[:min(1, len(views))]
	}
	var r ViewReleaser
	var batch []mSeg
	g, kept := -1, []hView(nil)
	for _, hv := range views {
		if one {
			hv.v.Release()
		} else {
			r.Add(hv.v)
		}
		if hv.refs--; hv.refs > 0 {
			kept = append(kept, hv)
			continue
		}
		if g == -1 {
			g = len(hv.segs)
		} else if g != len(hv.segs) {
			g = 0
		}
		batch = append(batch, hv.segs...)
	}
	r.Flush()
	h.held = append(kept, h.held[len(views):]...)
	if batch != nil {
		h.mo.lendBack(batch, g)
	}
}

// settle commits or aborts reservation r; a second terminal call is refused.
func (h *harness) settle(r *hRes, commit bool) {
	h.t.Helper()
	q := int(r.w.Queue())
	if commit {
		h.ok(nil, r.w.Commit())
		h.mo.lent -= len(r.segs)
		mm := &h.mo.ms[r.k]
		mm.queues[q] = append(mm.queues[q], r.segs...)
		if r.whole {
			mm.whole++
		}
	} else {
		h.ok(nil, r.w.Abort())
		h.mo.lendBack(r.segs, len(r.segs))
	}
	h.ok(ErrWriterDone, r.w.Commit())
	h.ok(ErrWriterDone, r.w.Abort())
	h.err = nil
}

// transfer moves q's head packet to queue to of the next manager by
// UnlinkHeadPacket and LinkPacketTail, and back with LinkPacketHead when
// the destination refuses it, as the engine moves a packet across shards.
func (h *harness) transfer(q, to int) {
	h.t.Helper()
	m, mm := h.ms[h.k], &h.mo.ms[h.k]
	dst := (h.k + 1) % len(h.ms)
	ch, err := m.UnlinkHeadPacket(QueueID(q))
	segs := h.headPacket(q, err)
	if segs == nil {
		return
	}
	h.eq("chain", [2]int{ch.Segs, ch.Bytes}, [2]int{len(segs), bytesOf(segs)})
	dm := &h.mo.ms[dst]
	_, want := dm.queue(to)
	if want == nil {
		want = dm.admit(to, len(segs))
	}
	if h.ok(want, h.ms[dst].LinkPacketTail(QueueID(to), ch)) {
		dm.queues[to] = append(dm.queues[to], segs...)
		return
	}
	h.ok(nil, m.LinkPacketHead(QueueID(q), ch))
	mm.queues[q] = append(slices.Clone(segs), mm.queues[q]...)
	h.err = want
}

// finish settles what the harness holds — open reservations aborted, held
// views released — and checks the books once more: nothing stays lent.
func (h *harness) finish() {
	h.t.Helper()
	for _, r := range h.open {
		h.settle(&r, false)
	}
	h.open = nil
	for len(h.held) > 0 {
		h.release(false)
	}
	h.what = "finish"
	h.check()
	h.eq("lent at the end", h.mo.lent, 0)
}

// check holds everything the managers and the store show to the model.
func (h *harness) check() {
	for _, c := range h.caches {
		c.Publish() // as each owner does when it leaves its critical section
	}
	if h.st != nil {
		// As the engine checks: every manager's queue walk and the store's
		// free walk mark one array, and what none of them meets is lent.
		seen := make([]bool, h.st.NumSegments())
		for k, m := range h.ms {
			if err := m.CheckMarking(seen); err != nil {
				h.t.Fatalf("%s: manager %d: %v", h.what, k, err)
			}
		}
		if err := h.st.CheckMarking(seen); err != nil {
			h.t.Fatalf("%s: %v", h.what, err)
		}
		if err := h.st.CheckLent(seen); err != nil {
			h.t.Fatalf("%s: %v", h.what, err)
		}
	}
	free := h.mo.free()
	for k, m := range h.ms {
		if err := m.CheckInvariants(); err != nil {
			h.t.Fatalf("%s: manager %d: %v", h.what, k, err)
		}
		mm := &h.mo.ms[k]
		queued, buffered := 0, 0
		for q, segs := range mm.queues {
			h.checkQueue(m, mm, q, segs)
			queued, buffered = queued+len(segs), buffered+bytesOf(segs)
		}
		h.eq("queued segments", m.QueuedSegments(), queued)
		h.eq("buffered bytes", m.TotalBuffered(), buffered)
		lq, ln, lok := m.LongestQueue()
		wq, wn := mm.longest()
		h.eq("longest queue", [3]int{int(lq), ln, b2i(lok)}, [3]int{wq, wn, b2i(wn > 0)})
		h.eq("LongestLen", m.LongestLen(), wn*b2i(mm.tracking))
		if h.racy {
			continue
		}
		h.eq("free segments", m.FreeSegments(), free)
		h.eq("lent segments", m.LentSegments(), h.mo.lent)
		if avail := m.AvailSegments(); h.mo.store != nil {
			h.eq("available segments", avail, free)
			h.eq("whole chains reused", m.FillWhole(), mm.whole)
		} else if avail > free {
			h.t.Fatalf("%s: manager %d can allocate %d segments of %d free", h.what, k, avail, free)
		}
	}
}

// checkQueue holds queue q, segment by segment, and its readers to the
// model.
func (h *harness) checkQueue(m *Manager, mm *mMgr, q int, segs []mSeg) {
	pkts := 0
	for _, s := range segs {
		pkts += b2i(s.eop)
	}
	occ, _ := m.Occupancy(QueueID(q))
	n, _ := m.Len(QueueID(q))
	lim, _ := m.SegmentLimit(QueueID(q))
	if want := (Occupancy{len(segs), bytesOf(segs), pkts}); occ != want || n != len(segs) || lim != mm.limits[q] {
		h.t.Fatalf("%s: queue %d holds %+v (Len %d, limit %d), the model says %+v (limit %d)",
			h.what, q, occ, n, lim, want, mm.limits[q])
	}
	for i, info := range segInfos(m, QueueID(q)) {
		if s := segs[i]; info.Len != s.len || info.EOP != s.eop || s.h >= 0 && info.Seg != Seg(s.h) {
			h.t.Fatalf("%s: queue %d segment %d is %+v, the model says %d B, EOP %v, handle %d",
				h.what, q, i, info, s.len, s.eop, s.h)
		}
		p, err := m.Payload(info.Seg)
		h.sentinel("Payload", nil, err)
		h.payload(p, segs[i:i+1])
	}
	b, n, err := m.PacketLen(QueueID(q))
	wn, werr := packet(segs)
	h.sentinel("PacketLen", werr, err)
	h.eq("PacketLen", [2]int{b, n}, [2]int{bytesOf(segs[:wn]), wn})
	info, got, err := m.ReadHead(QueueID(q))
	if h.sentinel("ReadHead", front(segs), err) {
		h.eq("ReadHead", [2]int{info.Len, b2i(info.EOP)}, [2]int{segs[0].len, b2i(segs[0].eop)})
		h.payload(got, segs[:1])
	}
}
