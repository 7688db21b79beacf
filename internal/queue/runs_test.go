package queue

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"npqm/internal/segstore"
)

// runsOf walks q segment by segment and returns the run lengths its chain
// claims, checking as it goes that the per-segment links the run coding
// promises are really there.
func runsOf(t *testing.T, m *Manager, q QueueID) []int {
	t.Helper()
	var runs []int
	for s := m.qhead[q]; s != nilSeg; {
		r := int32(m.seg[s] >> segstore.WordRun)
		if r < 1 {
			t.Fatalf("segment %d heads a run of %d", s, r)
		}
		runs = append(runs, int(r))
		s = m.next[s+r-1]
	}
	return runs
}

func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*13 + salt
	}
	return p
}

// A fresh private pool hands out ascending segments, so a packet is one run;
// Range yields it as one slice and the copy dequeue returns it intact.
func TestFreshPacketIsOneRun(t *testing.T) {
	m := newTestManager(t, 64)
	payload := pattern(5*SegmentBytes+9, 1)
	if _, err := m.EnqueuePacket(2, payload); err != nil {
		t.Fatal(err)
	}
	if got := runsOf(t, m, 2); len(got) != 1 || got[0] != 6 {
		t.Fatalf("runs = %v, want [6]", got)
	}
	if got := m.FillRuns(); got != 1 {
		t.Fatalf("FillRuns = %d, want 1", got)
	}
	v, err := m.DequeuePacketView(2)
	if err != nil {
		t.Fatal(err)
	}
	slices := 0
	v.Range(func(seg []byte) bool {
		slices++
		if !bytes.Equal(seg, payload) {
			t.Fatalf("run slice holds %d bytes, want the whole %d-byte packet", len(seg), len(payload))
		}
		return true
	})
	if slices != 1 {
		t.Fatalf("Range yielded %d slices for one run", slices)
	}
	v.Release()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Every per-segment mutator that touches the head of a run splits it: the
// head becomes a run of one and its successor inherits the rest.
func TestMutatorsSplitRuns(t *testing.T) {
	payload := pattern(4*SegmentBytes, 3)
	for _, tc := range []struct {
		name   string
		mutate func(m *Manager) error
		want   []int
		edit   func(p []byte) []byte // what the packet should read back as
	}{
		{"Dequeue", func(m *Manager) error { _, _, err := m.Dequeue(0); return err },
			[]int{3}, func(p []byte) []byte { return p[SegmentBytes:] }},
		{"DeleteSegment", func(m *Manager) error { return m.DeleteSegment(0) },
			[]int{3}, func(p []byte) []byte { return p[SegmentBytes:] }},
		{"Overwrite", func(m *Manager) error { return m.Overwrite(0, []byte("hdr")) },
			[]int{1, 3}, func(p []byte) []byte { return append([]byte("hdr"), p[SegmentBytes:]...) }},
		{"OverwriteLength", func(m *Manager) error { return m.OverwriteLength(0, 10) },
			[]int{1, 3}, func(p []byte) []byte { return append(append([]byte{}, p[:10]...), p[SegmentBytes:]...) }},
		{"AppendHead", func(m *Manager) error { _, err := m.AppendHead(0, []byte("encap"), false); return err },
			[]int{1, 4}, func(p []byte) []byte { return append([]byte("encap"), p...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t, 32)
			if _, err := m.EnqueuePacket(0, payload); err != nil {
				t.Fatal(err)
			}
			if err := tc.mutate(m); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got := runsOf(t, m, 0)
			if len(got) != len(tc.want) {
				t.Fatalf("runs = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("runs = %v, want %v", got, tc.want)
				}
			}
			out, _, err := m.DequeuePacket(0)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.edit(payload); !bytes.Equal(out, want) {
				t.Fatalf("packet reads back as %d bytes, want %d", len(out), len(want))
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A contiguous stretch longer than one word can record becomes several runs.
func TestRunLongerThanOneWord(t *testing.T) {
	m := newTestManager(t, 700)
	payload := pattern(600*SegmentBytes-5, 7)
	if _, err := m.EnqueuePacket(1, payload); err != nil {
		t.Fatal(err)
	}
	got := runsOf(t, m, 1)
	if len(got) != 3 || got[0] != segstore.MaxRun || got[1] != segstore.MaxRun || got[2] != 600-2*segstore.MaxRun {
		t.Fatalf("runs = %v, want [255 255 90]", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b, n, err := m.PacketLen(1); err != nil || b != len(payload) || n != 600 {
		t.Fatalf("PacketLen = (%d, %d, %v), want (%d, 600, nil)", b, n, err, len(payload))
	}
	w, err := m.ReservePacket(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	out, n, err := m.DequeuePacket(1)
	if err != nil || n != 600 || !bytes.Equal(out, payload) {
		t.Fatalf("dequeue = (%d bytes, %d, %v)", len(out), n, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants verifies every run a queued chain claims.
func TestCheckInvariantsReportsBadRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Manager, head int32)
		want    string
	}{
		{"run leaves the pool", func(m *Manager, h int32) { m.seg[h] = m.seg[h]&0xff | 200<<segstore.WordRun }, "starts a run of 200"},
		{"start without a run", func(m *Manager, h int32) { m.seg[h] &= 0xff }, "starts a run of 0"},
		{"interior link broken", func(m *Manager, h int32) { m.next[h+1] = h + 3 }, "inside a run"},
		{"interior not full", func(m *Manager, h int32) { m.seg[h+1] = SegmentBytes - 1 }, "inside a run"},
		{"interior marked EOP", func(m *Manager, h int32) { m.seg[h+2] |= segstore.WordEOP }, "inside a run"},
		{"run claims the next packet", func(m *Manager, h int32) { m.seg[h] = m.seg[h]&0xff | 5<<segstore.WordRun }, "inside a run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t, 16)
			for i := 0; i < 2; i++ {
				if _, err := m.EnqueuePacket(3, pattern(4*SegmentBytes-1, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m, m.qhead[3])
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzRunCoding drives the operations that can see or split a run — the
// per-segment commands, reservations and views — interleaved with packet
// enqueues on a pool that hands out long contiguous runs, against a
// reference model that knows nothing about runs: queues as plain lists of
// segments (64 bytes of backing memory, a length, an EOP flag).
//
// Every input runs twice. The private arm is one manager on a FIFO pool.
// The shared arm is two managers, each on its own cache of one
// segstore.Store, taking the commands in turn: freed chains pass through
// bins and grain stacks and come back whole to packets of other lengths
// (reuseChain), so a stale length, EOP or tail left in a reused chain shows
// up as a payload or length mismatch, and the store's CheckInvariants runs
// after every command.
//
// Command records are 3 bytes: opcode, operand a, operand b.
//
//	op%12 == 0: EnqueuePacket   q=a%4, 1+11*b bytes (up to 44 segments)
//	op%12 == 1: EnqueuePacket   q=a%4, 64*(200+b%100) bytes (runs past 255)
//	op%12 == 2: DequeuePacket   q=a%4
//	op%12 == 3: Dequeue         q=a%4 (one segment)
//	op%12 == 4: DeleteSegment   q=a%4
//	op%12 == 5: AppendHead      q=a%4, 1+b%64 bytes, EOP if b>=128
//	op%12 == 6: Overwrite       q=a%4, 1+b%64 bytes
//	op%12 == 7: OverwriteLength q=a%4, 1+b%64
//	op%12 == 8: ReservePacket   q=a%4, 1+11*(b>>1) bytes, then Commit (b odd) or Abort
//	op%12 == 9: DequeuePacketView + Release, q=a%4
//	op%12 == 10: MovePacket     from=a%4, to=b%4
//	op%12 == 11: DeletePacket   q=a%4
//
// The seed corpus (testdata/fuzz/FuzzRunCoding) splits a run with each
// mutator, builds a packet of more than 255 segments, commits and aborts
// reservations, and reuses freed segments out of address order. For the
// shared arm it hands chains with a short head segment between the
// managers, reuses a chain that was not the last in its bin and then
// exposes its tail's slack, and counts a view right after the other
// manager aborted a reservation.
func FuzzRunCoding(f *testing.F) {
	const pool = 640
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := New(Config{NumQueues: runCodingQueues, NumSegments: pool, StoreData: true})
		if err != nil {
			t.Fatal(err)
		}
		replayRunCoding(t, data, pool, []*Manager{m}, func() error { return nil })

		st, err := segstore.New(segstore.Config{
			NumSegments: pool, SegmentBytes: SegmentBytes, StoreData: true, MagazineSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		caches := []*segstore.Cache{st.NewCache(), st.NewCache()}
		ms := make([]*Manager, len(caches))
		for i, c := range caches {
			if ms[i], err = NewWithStore(Config{NumQueues: runCodingQueues}, c); err != nil {
				t.Fatal(err)
			}
		}
		replayRunCoding(t, data, pool, ms, func() error {
			for _, c := range caches {
				c.Publish() // as the owner does when it leaves a critical section
			}
			return st.CheckInvariants()
		})
	})
}

// runCodingQueues is the queue count of each manager FuzzRunCoding drives.
const runCodingQueues = 4

// replayRunCoding is FuzzRunCoding's body: record k goes to ms[k%len(ms)],
// and settle validates what the managers share after every command.
func replayRunCoding(t *testing.T, data []byte, pool int, ms []*Manager, settle func() error) {
	const nq = runCodingQueues
	type seg struct {
		mem   [SegmentBytes]byte
		len   int
		known int // bytes of mem the reference can vouch for (a writer's tail is never cleared)
		eop   bool
	}
	model := make([][nq][]seg, len(ms))
	free := pool

	split := func(p []byte) []seg {
		var out []seg
		for off := 0; off < len(p); off += SegmentBytes {
			var s seg
			s.len = copy(s.mem[:], p[off:])
			s.known = SegmentBytes
			out = append(out, s)
		}
		out[len(out)-1].eop = true
		return out
	}
	// headPacket returns the segments of q's head packet, or the error
	// the manager must report instead.
	headPacket := func(queues *[nq][]seg, q int) (int, error) {
		if len(queues[q]) == 0 {
			return 0, ErrQueueEmpty
		}
		for i, s := range queues[q] {
			if s.eop {
				return i + 1, nil
			}
		}
		return 0, ErrNoPacket
	}
	join := func(segs []seg) []byte {
		var out []byte
		for _, s := range segs {
			out = append(out, s.mem[:s.len]...)
		}
		return out
	}
	var fill byte
	fresh := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			fill += 7
			p[i] = fill
		}
		return p
	}

	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%12, data[i+1], data[i+2]
		q := int(a) % nq
		m, queues := ms[i/3%len(ms)], &model[i/3%len(ms)]
		avail := m.AvailSegments()
		// One command is one critical section: it returns early on the
		// failures it expects, and the checks below still run.
		func() {
			switch op {
			case 0, 1: // EnqueuePacket
				size := 1 + 11*int(b)
				if op == 1 {
					size = SegmentBytes * (200 + int(b)%100)
				}
				pkt := fresh(size)
				segs := split(pkt)
				n, err := m.EnqueuePacket(QueueID(q), pkt)
				if len(segs) > avail {
					if !errors.Is(err, ErrNoFreeSegments) {
						t.Fatalf("op %d: enqueue of %d segments with %d available: err = %v", i, len(segs), avail, err)
					}
					return
				}
				if err != nil || n != len(segs) {
					t.Fatalf("op %d: enqueue = (%d, %v), want (%d, nil)", i, n, err, len(segs))
				}
				queues[q] = append(queues[q], segs...)
				free -= n

			case 2, 9, 11: // DequeuePacket, DequeuePacketView, DeletePacket
				want, wantErr := headPacket(queues, q)
				var got []byte
				var n int
				var err error
				switch op {
				case 2:
					got, n, err = m.DequeuePacket(QueueID(q))
				case 9:
					var v PacketView
					if v, err = m.DequeuePacketView(QueueID(q)); err == nil {
						got, n = v.AppendTo(nil), v.Segments()
						if m.LentSegments() != n {
							t.Fatalf("op %d: %d segments lent with a %d-segment view out", i, m.LentSegments(), n)
						}
						v.Release()
					}
				case 11:
					n, err = m.DeletePacket(QueueID(q))
				}
				if wantErr != nil {
					if !errors.Is(err, wantErr) {
						t.Fatalf("op %d: packet op %d on q=%d: err = %v, want %v", i, op, q, err, wantErr)
					}
					return
				}
				if err != nil || n != want {
					t.Fatalf("op %d: packet op %d on q=%d = (%d, %v), want (%d, nil)", i, op, q, n, err, want)
				}
				if op != 11 && !bytes.Equal(got, join(queues[q][:want])) {
					t.Fatalf("op %d: packet op %d on q=%d: payload mismatch over %d segments", i, op, q, want)
				}
				queues[q] = queues[q][want:]
				free += want

			case 3, 4: // Dequeue, DeleteSegment
				var info SegInfo
				var got []byte
				var err error
				if op == 3 {
					info, got, err = m.Dequeue(QueueID(q))
				} else {
					err = m.DeleteSegment(QueueID(q))
				}
				if len(queues[q]) == 0 {
					if !errors.Is(err, ErrQueueEmpty) {
						t.Fatalf("op %d: segment op on empty q=%d: err = %v", i, q, err)
					}
					return
				}
				h := queues[q][0]
				if err != nil {
					t.Fatalf("op %d: segment op on q=%d: %v", i, q, err)
				}
				if op == 3 && (info.Len != h.len || info.EOP != h.eop || !bytes.Equal(got, h.mem[:h.len])) {
					t.Fatalf("op %d: Dequeue(q=%d) = (%d B, eop %v), want (%d B, eop %v)", i, q, info.Len, info.EOP, h.len, h.eop)
				}
				queues[q] = queues[q][1:]
				free++

			case 5: // AppendHead
				var s seg
				s.len = copy(s.mem[:], fresh(1+int(b)%SegmentBytes))
				s.known, s.eop = SegmentBytes, b >= 128
				_, err := m.AppendHead(QueueID(q), s.mem[:s.len], s.eop)
				if avail == 0 {
					if !errors.Is(err, ErrNoFreeSegments) {
						t.Fatalf("op %d: AppendHead on a dry pool: err = %v", i, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("op %d: AppendHead(q=%d): %v", i, q, err)
				}
				queues[q] = append([]seg{s}, queues[q]...)
				free--

			case 6, 7: // Overwrite, OverwriteLength
				n := 1 + int(b)%SegmentBytes
				if op == 7 && len(queues[q]) > 0 {
					n = 1 + int(b)%queues[q][0].known
				}
				var payload []byte
				var err error
				if op == 6 {
					payload = fresh(n)
					err = m.Overwrite(QueueID(q), payload)
				} else {
					err = m.OverwriteLength(QueueID(q), n)
				}
				if len(queues[q]) == 0 {
					if !errors.Is(err, ErrQueueEmpty) {
						t.Fatalf("op %d: overwrite on empty q=%d: err = %v", i, q, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("op %d: overwrite on q=%d: %v", i, q, err)
				}
				h := &queues[q][0]
				if op == 6 {
					h.mem, h.known = [SegmentBytes]byte{}, SegmentBytes
					copy(h.mem[:], payload)
				}
				h.len = n

			case 8: // ReservePacket, then Commit or Abort
				pkt := fresh(1 + 11*int(b>>1))
				segs := split(pkt)
				w, err := m.ReservePacket(QueueID(q), len(pkt))
				if len(segs) > avail {
					if !errors.Is(err, ErrNoFreeSegments) {
						t.Fatalf("op %d: reserve of %d segments with %d available: err = %v", i, len(segs), avail, err)
					}
					return
				}
				if err != nil || w.Segments() != len(segs) {
					t.Fatalf("op %d: reserve = (%d segs, %v), want (%d, nil)", i, w.Segments(), err, len(segs))
				}
				off := 0
				w.Range(func(s []byte) bool {
					off += copy(s, pkt[off:])
					return true
				})
				if off != len(pkt) {
					t.Fatalf("op %d: writer exposed %d bytes of %d", i, off, len(pkt))
				}
				if b&1 == 0 {
					if err := w.Abort(); err != nil {
						t.Fatalf("op %d: abort: %v", i, err)
					}
					return
				}
				if err := w.Commit(); err != nil {
					t.Fatalf("op %d: commit: %v", i, err)
				}
				segs[len(segs)-1].known = segs[len(segs)-1].len
				queues[q] = append(queues[q], segs...)
				free -= len(segs)

			case 10: // MovePacket
				to := int(b) % nq
				want, wantErr := headPacket(queues, q)
				n, err := m.MovePacket(QueueID(q), QueueID(to))
				if wantErr != nil {
					if !errors.Is(err, wantErr) {
						t.Fatalf("op %d: move %d->%d: err = %v, want %v", i, q, to, err, wantErr)
					}
					return
				}
				if err != nil || n != want {
					t.Fatalf("op %d: move %d->%d = (%d, %v), want (%d, nil)", i, q, to, n, err, want)
				}
				if q != to || len(queues[q]) > want {
					pkt := append([]seg{}, queues[q][:want]...)
					queues[q] = queues[q][want:]
					queues[to] = append(queues[to], pkt...)
				}
			}
		}()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d (opcode %d): %v", i, op, err)
		}
		if err := settle(); err != nil {
			t.Fatalf("op %d (opcode %d): %v", i, op, err)
		}
		if got := m.FreeSegments(); got != free {
			t.Fatalf("op %d (opcode %d): free segments %d, reference says %d", i, op, got, free)
		}
	}

	// Final cross-check: every queue reads back segment for segment.
	for k, m := range ms {
		for q := 0; q < nq; q++ {
			infos := segInfos(m, QueueID(q))
			if len(infos) != len(model[k][q]) {
				t.Fatalf("manager %d queue %d holds %d segments, reference says %d", k, q, len(infos), len(model[k][q]))
			}
			for at, info := range infos {
				want := model[k][q][at]
				got, _ := m.Payload(info.Seg)
				if info.Len != want.len || info.EOP != want.eop || !bytes.Equal(got, want.mem[:want.len]) {
					t.Fatalf("manager %d queue %d segment %d = (%d B, eop %v), reference wants (%d B, eop %v)",
						k, q, at, info.Len, info.EOP, want.len, want.eop)
				}
			}
		}
	}
}
