package engine

// Tests of the byte-budgeted burst: a shaped port asks the shards for its
// tick's budget at once (pacer.go, servePortOnce), so what used to follow
// from serving a packet at a time — the overdraw bound, per-flow order, the
// cross-shard interleave — is pinned here, on the stepped clock.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// flowPerShard returns one flow homed on each shard, in shard order.
func flowPerShard(t *testing.T, e *Engine) []uint32 {
	t.Helper()
	flows := make([]uint32, len(e.shards))
	have := make([]bool, len(e.shards))
	found := 0
	for f := 0; f < e.cfg.NumFlows && found < len(flows); f++ {
		if s := e.ShardOf(uint32(f)); !have[s] {
			flows[s], have[s] = uint32(f), true
			found++
		}
	}
	if found != len(flows) {
		t.Fatalf("only %d of %d shards own a flow below %d", found, len(flows), e.cfg.NumFlows)
	}
	return flows
}

// TestShapedBurstHoldsBudgetIMIX: IMIX packet sizes backlogged on all four
// shards of one shaped port, at a rate below one MTU per tick, at the
// benchmark's, and at one whose tick budget exceeds the 64-packet round.
// At every tick the port sends its budget and less than one packet more,
// the running total stays under rate·t + burst + one packet, and every
// flow's packets leave in the order they arrived.
func TestShapedBurstHoldsBudgetIMIX(t *testing.T) {
	sizes := [12]int{40, 40, 576, 40, 40, 576, 1500, 40, 576, 40, 576, 40} // 7:4:1
	const burst, maxPkt, ticks, flows = 4096, 1500, 24, 16
	for _, rate := range []int64{500_000, 2_000_000, 40_000_000} {
		t.Run(fmt.Sprintf("rate=%d", rate), func(t *testing.T) {
			e := newStepped(t, Config{
				Shards: 4, NumFlows: flows, NumSegments: 1 << 15,
				PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst},
			})
			defer e.Close()
			perTick := rate * pacerTick / second
			_, credit := shapedCredit(rate, burst, ticks)
			var offered int64
			var nextSeq, wantSeq [flows]uint32
			var onShard [4]bool
			for i := 0; offered <= credit+maxPkt; i++ { // backlog past the last tick's credit
				f := uint32(i % flows)
				pkt := make([]byte, sizes[i%len(sizes)])
				binary.LittleEndian.PutUint32(pkt, nextSeq[f])
				nextSeq[f]++
				if _, err := e.EnqueuePacket(f, pkt); err != nil {
					t.Fatal(err)
				}
				offered += int64(len(pkt))
				onShard[e.ShardOf(f)] = true
			}
			if onShard != [4]bool{true, true, true, true} {
				t.Fatalf("backlog covers shards %v, want all four", onShard)
			}
			var total, inTick, last int64
			var hdr [queue.SegmentBytes]byte
			if err := e.ServeViews(0, SinkVFunc(func(_ int, d Dequeued) error {
				d.View.Range(func(seg []byte) bool { copy(hdr[:], seg); return false })
				if seq := binary.LittleEndian.Uint32(hdr[:]); seq != wantSeq[d.Flow] {
					t.Errorf("flow %d: packet %d left when %d was due", d.Flow, seq, wantSeq[d.Flow])
				}
				wantSeq[d.Flow]++
				last = int64(d.Bytes)
				inTick += last
				return nil
			})); err != nil {
				t.Fatal(err)
			}
			for {
				// What the pacer will read when it serves this instant: the
				// bucket brought up to now plus the coming tick's earnings.
				budget := e.PortStats()[0].ShaperTokens + perTick
				inTick = 0
				e.settle()
				total += inTick
				switch {
				case budget <= 0 && inTick != 0:
					t.Fatalf("tick %d: sent %d bytes on a budget of %d", e.nowTick(), inTick, budget)
				case budget > 0 && (inTick < budget || inTick-last >= budget):
					t.Fatalf("tick %d: sent %d bytes (last packet %d) on a budget of %d, want the budget and less than one packet more",
						e.nowTick(), inTick, last, budget)
				}
				if _, hi := shapedCredit(rate, burst, e.nowTick()); total >= hi+maxPkt {
					t.Fatalf("tick %d: %d bytes sent, credit so far %d + one packet", e.nowTick(), total, hi)
				}
				if e.nowTick() == ticks {
					break
				}
				e.clk.ns.Add(pacerTick)
			}
		})
	}
}

// TestShapedPortSharesAcrossShards pins the cross-shard interleave of a
// shaped port whose every shard is backlogged: a tick's burst comes from
// the shard the rotation starts on, so a shard is served every Shards
// ticks, and over any 4·Shards ticks each shard's bytes are within one tick
// budget of its quarter.
func TestShapedPortSharesAcrossShards(t *testing.T) {
	const shards, rate, burst, pktBytes, ticks = 4, 2_000_000, 64, 64, 64
	const perTick = rate * int64(pacerTick) / int64(second)
	e := newStepped(t, Config{
		Shards: shards, NumFlows: 64, NumSegments: 1 << 15,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst},
	})
	defer e.Close()
	pkt := make([]byte, pktBytes)
	_, credit := shapedCredit(rate, burst, ticks)
	for _, f := range flowPerShard(t, e.Engine) {
		for n := int64(0); n <= credit; n += pktBytes { // any one shard could carry the whole run
			if _, err := e.EnqueuePacket(f, pkt); err != nil {
				t.Fatal(err)
			}
		}
	}
	var served [ticks + 1][shards]int64 // bytes per tick and shard
	if err := e.ServeViews(0, SinkVFunc(func(_ int, d Dequeued) error {
		served[e.nowTick()][e.ShardOf(d.Flow)] += int64(d.Bytes)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	e.settle()
	e.tick(ticks)
	var lastServed [shards]int
	for k := range served {
		for s, n := range served[k] {
			if n > 0 {
				lastServed[s] = k
			} else if k-lastServed[s] >= shards {
				t.Fatalf("tick %d: shard %d unserved since tick %d, want a turn every %d ticks", k, s, lastServed[s], shards)
			}
		}
		if k+1 < 4*shards {
			continue
		}
		var window [shards]int64
		var sum int64
		for _, tick := range served[k+1-4*shards : k+1] {
			for s, n := range tick {
				window[s] += n
				sum += n
			}
		}
		for s, n := range window {
			if d := n - sum/shards; d > perTick || d < -perTick {
				t.Fatalf("ticks %d..%d: shard %d served %d of %d bytes, more than a tick budget (%d) off its quarter",
					k+1-4*shards, k, s, n, sum, perTick)
			}
		}
	}
}

// TestContractCloseWithRetainedBurst: a sink keeps every view of a shaped
// port's burst — one critical section's lending, settled when the section
// ended — and the engine closes under it. The books say so until the last
// view comes back, and balance when it has.
func TestContractCloseWithRetainedBurst(t *testing.T) {
	const pool, rate, burst, pktBytes = 1 << 12, 2_000_000, 64, 64
	e := newStepped(t, Config{
		Shards: 4, NumFlows: 64, NumSegments: pool,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst},
	})
	pkt := make([]byte, pktBytes)
	for i := 0; i < 256; i++ {
		if _, err := e.EnqueuePacket(uint32(i%64), pkt); err != nil {
			t.Fatal(err)
		}
	}
	var held []PacketView
	if err := e.ServeViews(0, SinkVFunc(func(_ int, d DequeuedView) error {
		d.View.Retain()
		held = append(held, d.View)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	e.settle()
	// 64 + 2000 bytes of credit at tick 0: the 33rd packet crosses it.
	if len(held) != 33 {
		t.Fatalf("sink holds %d views, want the first tick's burst of 33", len(held))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if lent := e.LentSegments(); lent != len(held) {
		t.Fatalf("LentSegments = %d with %d one-segment views held across Close", lent, len(held))
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("books with a burst held across Close: %v", err)
	}
	for _, v := range held {
		v.Release()
	}
	if lent := e.LentSegments(); lent != 0 {
		t.Fatalf("LentSegments = %d after the burst came back", lent)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
