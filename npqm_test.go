package npqm

import (
	"bytes"
	"strings"
	"testing"
)

func TestQueueManagerFacade(t *testing.T) {
	qm, err := NewQueueManager(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	pkt := bytes.Repeat([]byte{0x42}, 200)
	n, err := qm.EnqueuePacket(3, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("segments = %d", n)
	}
	if l, _ := qm.Len(3); l != 4 {
		t.Fatalf("len = %d", l)
	}
	bytes_, segs, err := qm.PacketLen(3)
	if err != nil || bytes_ != 200 || segs != 4 {
		t.Fatalf("packetlen = %d,%d (%v)", bytes_, segs, err)
	}
	if _, err := qm.MovePacket(3, 5); err != nil {
		t.Fatal(err)
	}
	got, err := qm.DequeuePacket(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatal("round trip corrupted")
	}
	if qm.FreeSegments() != 64 {
		t.Fatalf("free = %d", qm.FreeSegments())
	}
	if err := qm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueManagerDeletePacket(t *testing.T) {
	qm, _ := NewQueueManager(4, 16)
	qm.EnqueuePacket(0, make([]byte, 100))
	n, err := qm.DeletePacket(0)
	if err != nil || n != 2 {
		t.Fatalf("deleted %d (%v)", n, err)
	}
}

func TestMMSFacade(t *testing.T) {
	m, err := NewMMS(256)
	if err != nil {
		t.Fatal(err)
	}
	pkt := bytes.Repeat([]byte{7}, 150)
	if _, err := m.Push(100, pkt); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Backlog(100); n != 3 {
		t.Fatalf("backlog = %d", n)
	}
	if _, err := m.Move(100, 200); err != nil {
		t.Fatal(err)
	}
	got, err := m.Pop(200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatal("MMS round trip corrupted")
	}
	cycles := m.CommandCycles()
	if cycles["Enqueue"] != 10 || cycles["Dequeue"] != 11 {
		t.Fatalf("command cycles = %v", cycles)
	}
}

func TestHeadline(t *testing.T) {
	g := HeadlineThroughputGbps()
	if g < 5.9 || g > 6.2 {
		t.Fatalf("headline = %v", g)
	}
}

func TestSoftwareTransitMbps(t *testing.T) {
	word, err := SoftwareTransitMbps("word", 100)
	if err != nil {
		t.Fatal(err)
	}
	line, err := SoftwareTransitMbps("line", 100)
	if err != nil {
		t.Fatal(err)
	}
	if line <= word {
		t.Fatal("line copy should beat word copy")
	}
	if _, err := SoftwareTransitMbps("quantum", 100); err == nil {
		t.Fatal("unknown engine accepted")
	}
	// The paper's central comparison: hardware is an order of magnitude
	// beyond the software baselines.
	if HeadlineThroughputGbps()*1000 < 10*line {
		t.Fatal("MMS should be >=10x the best software baseline")
	}
}

func TestIXPKpps(t *testing.T) {
	one, err := IXPKpps(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one < 900 || one > 1000 {
		t.Fatalf("16-queue 1-ME = %v Kpps, paper says 956", one)
	}
	if _, err := IXPKpps(1<<20, 1); err == nil {
		t.Fatal("out-of-tier queue count accepted")
	}
	if _, err := IXPKpps(16, 9); err == nil {
		t.Fatal("bad engine count accepted")
	}
}

func TestReport(t *testing.T) {
	var sb strings.Builder
	if err := Report(&sb, 1, 30_000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Figure 1", "Figure 2", "headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestConcurrentQueueManager(t *testing.T) {
	cm, err := NewConcurrentEngine(ConcurrentConfig{Flows: 1024, Segments: 8192, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := cm.Config().Shards; n != 4 {
		t.Fatalf("Shards = %d, want 4", n)
	}
	pkt := bytes.Repeat([]byte{0x77}, 300)
	if _, err := cm.EnqueuePacket(9, pkt); err != nil {
		t.Fatal(err)
	}
	got, err := cm.DequeuePacket(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pkt) {
		t.Fatalf("round trip lost data: %d bytes", len(got))
	}
	cm.ReleaseBuffer(got)

	batch := make([]PacketEnqueue, 50)
	for i := range batch {
		batch[i] = PacketEnqueue{Flow: uint32(i % 10), Data: pkt}
	}
	segs, errs := cm.EnqueueBatch(batch)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch[%d]: %v", i, err)
		}
	}
	if segs != 50*5 {
		t.Fatalf("batch segments = %d, want 250", segs)
	}
	st := cm.Stats()
	if st.EnqueuedPackets != 51 || st.QueuedSegments != 250 {
		t.Fatalf("stats = %+v", st)
	}
	flows := make([]uint32, 50)
	for i := range flows {
		flows[i] = uint32(i % 10)
	}
	pkts, derrs := cm.DequeueBatch(flows)
	for i, err := range derrs {
		if err != nil {
			t.Fatalf("dequeue[%d]: %v", i, err)
		}
		cm.ReleaseBuffer(pkts[i])
	}
	if err := cm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cm.FreeSegments() != 8192 {
		t.Fatalf("FreeSegments = %d, want 8192", cm.FreeSegments())
	}
}
