// Package packet provides the packet-level vocabulary for the examples and
// traffic generators: Ethernet frames with 802.1Q/802.1p tags, ATM cells,
// flow classification onto the 32K MMS queues, and the byte-level
// segmentation helpers the paper's applications rely on (Section 6 lists
// Ethernet switching with QoS, ATM switching, IP routing and NAT among the
// accelerated applications).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"npqm/internal/segstore"
)

// SegmentBytes is the queue engine's fixed segment size, which the segment
// store decides.
const SegmentBytes = segstore.SegmentBytes

// Ethernet constants.
const (
	// EthMinFrame is the minimum Ethernet frame (the paper's worst case).
	EthMinFrame = 64
	// EthMaxFrame is the standard maximum (non-jumbo).
	EthMaxFrame = 1518
	// EtherTypeVLAN is the 802.1Q tag protocol identifier.
	EtherTypeVLAN = 0x8100
	// EtherTypeIPv4 identifies IPv4 payloads.
	EtherTypeIPv4 = 0x0800
)

// ATM constants.
const (
	// ATMCellBytes is the fixed ATM cell size.
	ATMCellBytes = 53
	// ATMPayloadBytes is the cell payload (48 bytes after the 5-byte header).
	ATMPayloadBytes = 48
)

// ErrFrameTooShort is ParseEth's refusal of a truncated frame.
var ErrFrameTooShort = errors.New("packet: frame too short")

// MAC is an Ethernet address.
type MAC [6]byte

// String implements fmt.Stringer.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// EthFrame is a parsed Ethernet frame header.
type EthFrame struct {
	Dst, Src  MAC
	VLAN      uint16 // VLAN ID (0 if untagged)
	PCP       uint8  // 802.1p priority code point (0 if untagged)
	EtherType uint16
	Payload   []byte // view into the original frame
	Raw       []byte
}

// ParseEth parses an Ethernet frame, including an optional 802.1Q tag.
func ParseEth(frame []byte) (EthFrame, error) {
	if len(frame) < 14 {
		return EthFrame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooShort, len(frame))
	}
	var f EthFrame
	f.Raw = frame
	copy(f.Dst[:], frame[0:6])
	copy(f.Src[:], frame[6:12])
	et := binary.BigEndian.Uint16(frame[12:14])
	off := 14
	if et == EtherTypeVLAN {
		if len(frame) < 18 {
			return EthFrame{}, fmt.Errorf("%w: truncated VLAN tag", ErrFrameTooShort)
		}
		tci := binary.BigEndian.Uint16(frame[14:16])
		f.PCP = uint8(tci >> 13)
		f.VLAN = tci & 0x0fff
		et = binary.BigEndian.Uint16(frame[16:18])
		off = 18
	}
	f.EtherType = et
	f.Payload = frame[off:]
	return f, nil
}

// BuildEth constructs an Ethernet frame with an optional 802.1Q tag
// (vlan > 0 or pcp > 0 adds the tag). The frame is padded to EthMinFrame.
func BuildEth(dst, src MAC, vlan uint16, pcp uint8, etherType uint16, payload []byte) []byte {
	tagged := vlan > 0 || pcp > 0
	n := 14 + len(payload)
	if tagged {
		n += 4
	}
	if n < EthMinFrame {
		n = EthMinFrame
	}
	frame := make([]byte, n)
	copy(frame[0:6], dst[:])
	copy(frame[6:12], src[:])
	off := 12
	if tagged {
		binary.BigEndian.PutUint16(frame[off:], EtherTypeVLAN)
		tci := uint16(pcp)<<13 | (vlan & 0x0fff)
		binary.BigEndian.PutUint16(frame[off+2:], tci)
		off += 4
	}
	binary.BigEndian.PutUint16(frame[off:], etherType)
	copy(frame[off+2:], payload)
	return frame
}

// ATMCell is a fixed-size ATM cell.
type ATMCell struct {
	VPI     uint16
	VCI     uint16
	PT      uint8 // payload type (bit 0 of PT = AAL5 end-of-frame marker)
	Payload [ATMPayloadBytes]byte
}

// EndOfFrame reports whether the cell closes an AAL5 frame.
func (c ATMCell) EndOfFrame() bool { return c.PT&1 == 1 }

// Marshal encodes the cell into 53 bytes (simplified header, no HEC
// computation — the queue manager never inspects it).
func (c ATMCell) Marshal() []byte {
	out := make([]byte, ATMCellBytes)
	out[0] = byte(c.VPI >> 4)
	out[1] = byte(c.VPI<<4) | byte(c.VCI>>12)
	out[2] = byte(c.VCI >> 4)
	out[3] = byte(c.VCI<<4) | (c.PT&0x7)<<1
	// out[4] would be the HEC.
	copy(out[5:], c.Payload[:])
	return out
}

// FlowKey is the classification tuple mapping traffic onto MMS queues.
type FlowKey struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Hash maps the key onto [0, buckets) with a SplitMix64 finalizer.
func (k FlowKey) Hash(buckets int) uint32 {
	if buckets <= 0 {
		panic("packet: Hash needs positive buckets")
	}
	z := uint64(k.SrcIP)<<32 | uint64(k.DstIP)
	z ^= uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Proto)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z % uint64(buckets))
}

// SegmentCount returns how many 64-byte segments a payload needs.
func SegmentCount(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + SegmentBytes - 1) / SegmentBytes
}

// Segment cuts data into SegmentBytes chunks; the final chunk keeps its
// natural length. It returns views, not copies.
func Segment(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	out := make([][]byte, 0, SegmentCount(len(data)))
	for off := 0; off < len(data); off += SegmentBytes {
		end := off + SegmentBytes
		if end > len(data) {
			end = len(data)
		}
		out = append(out, data[off:end])
	}
	return out
}

// CellsForPacket splits an AAL5-style payload into ATM cells on the given
// VPI/VCI, marking the last cell's end-of-frame bit. Short final payloads
// are zero-padded, as AAL5 does.
func CellsForPacket(vpi, vci uint16, payload []byte) []ATMCell {
	if len(payload) == 0 {
		return nil
	}
	n := (len(payload) + ATMPayloadBytes - 1) / ATMPayloadBytes
	cells := make([]ATMCell, n)
	for i := 0; i < n; i++ {
		c := &cells[i]
		c.VPI, c.VCI = vpi, vci
		start := i * ATMPayloadBytes
		end := start + ATMPayloadBytes
		if end > len(payload) {
			end = len(payload)
		}
		copy(c.Payload[:], payload[start:end])
		if i == n-1 {
			c.PT |= 1
		}
	}
	return cells
}
