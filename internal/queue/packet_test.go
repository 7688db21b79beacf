package queue

import (
	"bytes"
	"errors"
	"testing"
)

func TestEnqueuePacketSegmentation(t *testing.T) {
	m := newTestManager(t, 16)
	data := make([]byte, 3*SegmentBytes+10) // 4 segments
	for i := range data {
		data[i] = byte(i)
	}
	n, err := m.EnqueuePacket(5, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("segments = %d, want 4", n)
	}
	// Last segment carries the remainder and the EOP flag.
	infos := segInfos(m, 5)
	if len(infos) != 4 {
		t.Fatalf("walk saw %d segments", len(infos))
	}
	for i := 0; i < 3; i++ {
		if infos[i].Len != SegmentBytes || infos[i].EOP {
			t.Fatalf("segment %d: %+v", i, infos[i])
		}
	}
	if infos[3].Len != 10 || !infos[3].EOP {
		t.Fatalf("last segment: %+v", infos[3])
	}
	mustInvariants(t, m)
}

func TestPacketRoundTrip(t *testing.T) {
	m := newTestManager(t, 64)
	for _, size := range []int{1, SegmentBytes - 1, SegmentBytes, SegmentBytes + 1, 5 * SegmentBytes, 777} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if _, err := m.EnqueuePacket(2, data); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, _, err := m.DequeuePacket(2)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip corrupted", size)
		}
		mustInvariants(t, m)
	}
}

func TestEnqueuePacketExactFit(t *testing.T) {
	m := newTestManager(t, 4)
	data := make([]byte, 4*SegmentBytes)
	if _, err := m.EnqueuePacket(0, data); err != nil {
		t.Fatal(err)
	}
	if m.FreeSegments() != 0 {
		t.Fatalf("free = %d", m.FreeSegments())
	}
}

func TestEnqueuePacketInsufficientSegments(t *testing.T) {
	m := newTestManager(t, 2)
	data := make([]byte, 3*SegmentBytes)
	if _, err := m.EnqueuePacket(0, data); !errors.Is(err, ErrNoFreeSegments) {
		t.Fatalf("err = %v", err)
	}
	// Nothing may leak on failure.
	if m.FreeSegments() != 2 {
		t.Fatalf("free = %d", m.FreeSegments())
	}
	if n, _ := m.Len(0); n != 0 {
		t.Fatalf("len = %d", n)
	}
	mustInvariants(t, m)
}

func TestEnqueuePacketEmpty(t *testing.T) {
	m := newTestManager(t, 2)
	if _, err := m.EnqueuePacket(0, nil); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v", err)
	}
}

func TestDequeuePacketErrors(t *testing.T) {
	m := newTestManager(t, 8)
	if _, _, err := m.DequeuePacket(0); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
	m.Enqueue(0, []byte{1}, false)
	if _, _, err := m.DequeuePacket(0); !errors.Is(err, ErrNoPacket) {
		t.Fatalf("err = %v", err)
	}
}

func TestDequeuePacketInterleavedQueues(t *testing.T) {
	m := newTestManager(t, 32)
	a := bytes.Repeat([]byte{0xaa}, 100)
	b := bytes.Repeat([]byte{0xbb}, 200)
	m.EnqueuePacket(0, a)
	m.EnqueuePacket(1, b)
	gotB, _, err := m.DequeuePacket(1)
	if err != nil {
		t.Fatal(err)
	}
	gotA, _, err := m.DequeuePacket(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatal("cross-queue corruption")
	}
	mustInvariants(t, m)
}

func TestPacketLen(t *testing.T) {
	m := newTestManager(t, 16)
	data := make([]byte, 2*SegmentBytes+5)
	m.EnqueuePacket(0, data)
	bytes_, segs, err := m.PacketLen(0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes_ != len(data) || segs != 3 {
		t.Fatalf("PacketLen = %d bytes %d segs", bytes_, segs)
	}
	// Non-destructive.
	if n, _ := m.Len(0); n != 3 {
		t.Fatalf("len = %d", n)
	}
	if _, _, err := m.PacketLen(3); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestMoveWholePacketBetweenQueuesPreservesData(t *testing.T) {
	m := newTestManager(t, 32)
	pkt := make([]byte, 3*SegmentBytes)
	for i := range pkt {
		pkt[i] = byte(i ^ 0x5a)
	}
	m.EnqueuePacket(4, pkt)
	if _, err := m.MovePacket(4, 6); err != nil {
		t.Fatal(err)
	}
	got, _, err := m.DequeuePacket(6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatal("move corrupted packet data")
	}
	mustInvariants(t, m)
}
