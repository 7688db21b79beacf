package main

import "encoding/binary"

// Every packet the harness offers starts with a 16-byte header the
// verifier reads back on delivery:
//
//	0  flow   uint32  flow the packet was offered on
//	4  seq    uint32  per-flow sequence number, from 0
//	8  size   uint16  packet length in bytes, header included
//	10 magic  uint16  hdrMagic ^ low16(flow ^ seq ^ size)
//	12 stamp  uint32  due time in stampUnit ticks since the trial base, +1; 0 = unstamped
//
// One packet in 64 per flow (the "unique" ones) carries a payload derived
// from (flow, seq), checked byte for byte on delivery. The rest carry
// the shared template, which costs the producer nothing to stage.
const (
	hdrBytes  = 16
	hdrMagic  = 0xA55A
	stampUnit = 16 // ns per stamp tick: a uint32 spans 68 s, longer than any trial
)

type header struct {
	flow, seq uint32
	size      int
	stamp     uint32
}

func magicOf(flow, seq uint32, size int) uint16 {
	return hdrMagic ^ uint16(flow^seq^uint32(size))
}

func putHeader(b []byte, h header) {
	binary.LittleEndian.PutUint32(b[0:], h.flow)
	binary.LittleEndian.PutUint32(b[4:], h.seq)
	binary.LittleEndian.PutUint16(b[8:], uint16(h.size))
	binary.LittleEndian.PutUint16(b[10:], magicOf(h.flow, h.seq, h.size))
	binary.LittleEndian.PutUint32(b[12:], h.stamp)
}

// parseHeader decodes b[:hdrBytes]; ok is false when the magic does not
// match the fields, i.e. the header bytes were damaged or belong to no
// packet the harness wrote.
func parseHeader(b []byte) (h header, ok bool) {
	h.flow = binary.LittleEndian.Uint32(b[0:])
	h.seq = binary.LittleEndian.Uint32(b[4:])
	h.size = int(binary.LittleEndian.Uint16(b[8:]))
	h.stamp = binary.LittleEndian.Uint32(b[12:])
	return h, binary.LittleEndian.Uint16(b[10:]) == magicOf(h.flow, h.seq, h.size)
}

// isUnique selects the packets whose payload is checked in full.
func isUnique(flow, seq uint32) bool { return (flow^seq)&63 == 0 }

// payloadByte is byte i of a packet's payload. key 0 is the shared
// template; unique packets use uniqueKey so that a segment spliced in from
// another packet does not match.
func payloadByte(i int, key byte) byte { return byte(i)*167 + byte(i>>8)*13 + key }

func uniqueKey(flow, seq uint32) byte { return byte(flow*31+seq*17) | 1 }

func fillPayload(b []byte, from int, key byte) {
	for i := from; i < len(b); i++ {
		b[i] = payloadByte(i, key)
	}
}

// payloadMatches checks seg, which holds packet bytes [off, off+len(seg)),
// against the pattern for key, skipping the header.
func payloadMatches(seg []byte, off int, key byte) bool {
	i := 0
	if off < hdrBytes {
		i = hdrBytes - off
	}
	for ; i < len(seg); i++ {
		if seg[i] != payloadByte(off+i, key) {
			return false
		}
	}
	return true
}
