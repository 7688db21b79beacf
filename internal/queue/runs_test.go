package queue

import (
	"bytes"
	"slices"
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
	m := newPrivate(t, 8, 64).ms[0]
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
	for _, tc := range []struct {
		name string
		op   []int
		want []int
	}{
		{"Dequeue", []int{oDequeue, 0}, []int{3}},
		{"DeleteSegment", []int{oDeleteSegment, 0}, []int{3}},
		{"Overwrite", []int{oOverwrite, 0, 3}, []int{1, 3}},
		{"OverwriteLength", []int{oOverwriteLength, 0, 10}, []int{1, 3}},
		{"AppendHead", []int{oAppendHead, 0, 5, 0}, []int{1, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newPrivate(t, 8, 32).do(oEnqueuePacket, 0, 4*SegmentBytes).do(tc.op[0], tc.op[1:]...).is(nil)
			if got := runsOf(t, h.ms[0], 0); !slices.Equal(got, tc.want) {
				t.Fatalf("runs = %v, want %v", got, tc.want)
			}
			h.do(oDequeuePacket, 0).is(nil)
		})
	}
}

// A contiguous stretch longer than one word can record becomes several runs.
func TestRunLongerThanOneWord(t *testing.T) {
	m := newPrivate(t, 8, 700).ms[0]
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
			m := newPrivate(t, 8, 16).ms[0]
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
