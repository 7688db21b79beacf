package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEthRoundTripUntagged(t *testing.T) {
	dst := MAC{1, 2, 3, 4, 5, 6}
	src := MAC{7, 8, 9, 10, 11, 12}
	payload := []byte("hello world")
	frame := BuildEth(dst, src, 0, 0, EtherTypeIPv4, payload)
	if len(frame) != EthMinFrame {
		t.Fatalf("frame not padded: %d", len(frame))
	}
	f, err := ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dst != dst || f.Src != src || f.EtherType != EtherTypeIPv4 {
		t.Fatalf("parsed = %+v", f)
	}
	if f.VLAN != 0 || f.PCP != 0 {
		t.Fatal("untagged frame reports a tag")
	}
	if !bytes.HasPrefix(f.Payload, payload) {
		t.Fatal("payload lost")
	}
}

func TestEthRoundTripTagged(t *testing.T) {
	frame := BuildEth(MAC{0xff}, MAC{1}, 42, 5, EtherTypeIPv4, []byte{0xde, 0xad})
	f, err := ParseEth(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.VLAN != 42 || f.PCP != 5 {
		t.Fatalf("tag = vlan %d pcp %d", f.VLAN, f.PCP)
	}
	if f.EtherType != EtherTypeIPv4 {
		t.Fatalf("ethertype = %#x", f.EtherType)
	}
}

func TestEthPCPRange(t *testing.T) {
	// All 8 priority values survive the round trip.
	for pcp := uint8(0); pcp < 8; pcp++ {
		f, err := ParseEth(BuildEth(MAC{}, MAC{}, 1, pcp, EtherTypeIPv4, nil))
		if err != nil {
			t.Fatal(err)
		}
		if f.PCP != pcp {
			t.Fatalf("pcp %d -> %d", pcp, f.PCP)
		}
	}
}

func TestParseEthErrors(t *testing.T) {
	if _, err := ParseEth(make([]byte, 10)); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v", err)
	}
	// Truncated VLAN tag.
	short := BuildEth(MAC{}, MAC{}, 5, 1, EtherTypeIPv4, nil)[:15]
	if _, err := ParseEth(short); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("mac = %s", m)
	}
}

func TestATMCellRoundTrip(t *testing.T) {
	var c ATMCell
	c.VPI, c.VCI, c.PT = 0x5a, 0x123, 1
	for i := range c.Payload {
		c.Payload[i] = byte(i)
	}
	raw := c.Marshal()
	if len(raw) != ATMCellBytes {
		t.Fatalf("cell size = %d", len(raw))
	}
	// VPI in bits 4-11 of the header, VCI in the 16 after, PT in bits 1-3 of
	// byte 3, payload after the (uncomputed) HEC byte.
	if want := []byte{0x05, 0xa0, 0x12, 0x32, 0}; !bytes.Equal(raw[:5], want) {
		t.Fatalf("header = %x, want %x", raw[:5], want)
	}
	if !bytes.Equal(raw[5:], c.Payload[:]) {
		t.Fatal("payload mismatch")
	}
	if !c.EndOfFrame() {
		t.Fatal("EOF bit lost")
	}
}

func TestCellsForPacket(t *testing.T) {
	payload := make([]byte, 100) // 3 cells (48+48+4)
	for i := range payload {
		payload[i] = byte(i)
	}
	cells := CellsForPacket(1, 2, payload)
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	for i, c := range cells {
		if c.VPI != 1 || c.VCI != 2 {
			t.Fatalf("cell %d header wrong", i)
		}
		if c.EndOfFrame() != (i == 2) {
			t.Fatalf("cell %d EOF wrong", i)
		}
	}
	// Reassembly through payload concatenation recovers the prefix.
	var re []byte
	for _, c := range cells {
		re = append(re, c.Payload[:]...)
	}
	if !bytes.Equal(re[:100], payload) {
		t.Fatal("payload corrupted")
	}
	if CellsForPacket(1, 2, nil) != nil {
		t.Fatal("empty payload should produce no cells")
	}
}

func TestFlowKeyHash(t *testing.T) {
	k1 := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	k2 := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5, Proto: 6}
	if k1.Hash(32768) == k2.Hash(32768) {
		t.Fatal("distinct flows should (almost surely) hash apart")
	}
	if k1.Hash(32768) != k1.Hash(32768) {
		t.Fatal("hash not deterministic")
	}
	// Distribution sanity.
	counts := make([]int, 16)
	for i := uint32(0); i < 16000; i++ {
		counts[FlowKey{SrcIP: i, DstIP: ^i}.Hash(16)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("bucket %d has %d/16000", b, c)
		}
	}
}

func TestFlowKeyHashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FlowKey{}.Hash(0)
}

func TestSegmentReassembleProperty(t *testing.T) {
	f := func(data []byte) bool {
		segs := Segment(data)
		if len(segs) != SegmentCount(len(data)) {
			return false
		}
		for i, s := range segs {
			if i < len(segs)-1 && len(s) != SegmentBytes {
				return false
			}
			if len(s) == 0 || len(s) > SegmentBytes {
				return false
			}
		}
		return bytes.Equal(bytes.Join(segs, nil), data)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if Segment(nil) != nil {
		t.Fatal("empty data should produce no segments")
	}
	if SegmentCount(0) != 0 || SegmentCount(-1) != 0 {
		t.Fatal("SegmentCount edge cases wrong")
	}
	if SegmentCount(64) != 1 || SegmentCount(65) != 2 {
		t.Fatal("SegmentCount boundaries wrong")
	}
}
