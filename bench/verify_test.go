package main

import (
	"errors"
	"testing"
)

// mkPacket builds a packet as the producer stages it.
func mkPacket(flow, seq uint32, size int) []byte {
	b := make([]byte, size)
	key := byte(0)
	if isUnique(flow, seq) {
		key = uniqueKey(flow, seq)
	}
	fillPayload(b, hdrBytes, key)
	putHeader(b, header{flow: flow, seq: seq, size: size})
	return b
}

func cleanEnd(offered uint64) endState {
	return endState{pool: 1024, free: 1024, offered: offered}
}

func TestVerifierAcceptsCleanDelivery(t *testing.T) {
	v := newVerifier(128, false, true)
	var n uint64
	for seq := uint32(0); seq < 130; seq++ {
		for _, flow := range []uint32{3, 64, 127} {
			p := mkPacket(flow, seq, 64+int(seq)*7)
			v.copyPacket(flow, p, len(p))
			n++
		}
	}
	v.finish(cleanEnd(n))
	if v.failed() != 0 {
		t.Fatalf("clean delivery counted failures:%s", v.describe())
	}
	if v.delivered != n || v.gaps != 0 {
		t.Fatalf("delivered %d gaps %d, want %d and 0", v.delivered, v.gaps, n)
	}
}

// The three deliveries the issue names: each must show up in ops_failed.
func TestVerifierCountsBadDeliveries(t *testing.T) {
	t.Run("reordered", func(t *testing.T) {
		v := newVerifier(8, false, false)
		for _, seq := range []uint32{0, 2, 1, 3} { // 1 and 2 swapped
			p := mkPacket(5, seq, 64)
			v.copyPacket(5, p, len(p))
		}
		v.finish(cleanEnd(4))
		if v.fails[failOrder] != 1 || v.fails[failGap] != 1 {
			t.Fatalf("reorder: order=%d gap=%d, want 1 and 1 (%s)", v.fails[failOrder], v.fails[failGap], v.describe())
		}
		if v.failed() == 0 {
			t.Fatal("reordered delivery not counted as failed")
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		v := newVerifier(128, false, false)
		// flow 64, seq 0 is a unique packet: its payload is checked in full.
		if !isUnique(64, 0) {
			t.Fatal("test packet is not a unique one")
		}
		p := mkPacket(64, 0, 1500)
		p[1499] ^= 0x10 // last payload byte, last segment
		v.copyPacket(64, p, len(p))
		// A damaged header on an ordinary packet.
		q := mkPacket(1, 0, 64)
		q[5] ^= 0x01
		v.copyPacket(1, q, len(q))
		// A truncated packet.
		r := mkPacket(2, 0, 128)
		v.copyPacket(2, r[:64], 64)
		v.finish(cleanEnd(3))
		if v.fails[failPayload] != 1 || v.fails[failHeader] != 1 || v.fails[failLength] != 1 {
			t.Fatalf("corruption: %s; want payload=1 header=1 length=1", v.describe())
		}
	})
	t.Run("leaked view", func(t *testing.T) {
		v := newVerifier(8, false, false)
		p := mkPacket(0, 0, 1500)
		v.copyPacket(0, p, len(p))
		end := cleanEnd(1)
		end.lent = 24 // the view's 24 segments were never released
		end.free = 1024 - 24
		v.finish(end)
		if v.fails[failLeak] != 1 || v.fails[failPool] != 1 {
			t.Fatalf("leak: %s; want leak=1 pool=1", v.describe())
		}
	})
	t.Run("lost packet", func(t *testing.T) {
		v := newVerifier(8, false, false)
		p := mkPacket(0, 0, 64)
		v.copyPacket(0, p, len(p))
		v.finish(cleanEnd(2)) // two offered, one delivered, none accounted for
		if v.fails[failConservation] != 1 {
			t.Fatalf("lost packet: %s; want conservation=1", v.describe())
		}
	})
	t.Run("broken invariants", func(t *testing.T) {
		v := newVerifier(8, false, false)
		end := cleanEnd(0)
		end.invariants = errors.New("free list cycle")
		v.finish(end)
		if v.fails[failInvariant] != 1 {
			t.Fatalf("invariants: %s", v.describe())
		}
	})
}

func TestVerifierGapsLegalOnlyUnderPushOut(t *testing.T) {
	deliver := func(v *verifier) {
		for _, seq := range []uint32{0, 3} { // 1 and 2 pushed out
			p := mkPacket(1, seq, 64)
			v.copyPacket(1, p, len(p))
		}
	}
	strict := newVerifier(8, false, false)
	deliver(strict)
	if strict.fails[failGap] != 1 {
		t.Fatalf("gap without push-out: %s", strict.describe())
	}
	lqd := newVerifier(8, true, false)
	deliver(lqd)
	end := cleanEnd(4)
	end.pushedOut = 2
	lqd.finish(end)
	if lqd.failed() != 0 || lqd.gaps != 2 {
		t.Fatalf("gap under push-out: gaps=%d%s", lqd.gaps, lqd.describe())
	}
	// More gaps than the engine admits to having dropped is a loss.
	end.pushedOut, end.resident = 1, 1
	lqd2 := newVerifier(8, true, false)
	deliver(lqd2)
	lqd2.finish(end)
	if lqd2.fails[failConservation] != 1 {
		t.Fatalf("unexplained gaps: %s", lqd2.describe())
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	run := func(order []uint32) uint64 {
		v := newVerifier(8, true, true)
		for _, flow := range order {
			p := mkPacket(flow, 0, 64)
			v.copyPacket(flow, p, len(p))
		}
		return v.digest
	}
	if run([]uint32{1, 2, 3}) != run([]uint32{1, 2, 3}) {
		t.Fatal("digest does not repeat")
	}
	if run([]uint32{1, 2, 3}) == run([]uint32{1, 3, 2}) {
		t.Fatal("digest ignores delivery order")
	}
}
