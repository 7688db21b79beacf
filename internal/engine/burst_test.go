package engine

// Tests of the byte-budgeted burst: a shaped port asks the shards for its
// tick's budget at once (pacer.go, servePortOnce). The model holds every
// tick's departures — how many bytes, which packets, from which shard — and
// these scripts pin what follows from them: the overdraw bound, per-flow
// order, the cross-shard interleave.

import (
	"fmt"
	"slices"
	"testing"

	"npqm/internal/policy"
)

// flowPerShard returns one flow homed on each shard, in shard order.
func flowPerShard(t *testing.T, e *Engine) []uint32 {
	t.Helper()
	flows := make([]uint32, len(e.shards))
	have := make([]bool, len(e.shards))
	found := 0
	for f := 0; f < e.cfg.NumFlows && found < len(flows); f++ {
		if s := e.shardIndex(uint32(f)); !have[s] {
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
// The model holds each tick to its budget and every flow to FIFO; by every
// tick the port has sent what its bucket granted, and less than one packet
// more.
func TestShapedBurstHoldsBudgetIMIX(t *testing.T) {
	sizes := [12]int{40, 40, 576, 40, 40, 576, 1500, 40, 576, 40, 576, 40} // 7:4:1
	const burst, maxPkt, ticks, flows = 4096, 1500, 24, 16
	for _, rate := range []int64{500_000, 2_000_000, 40_000_000} {
		t.Run(fmt.Sprintf("rate=%d", rate), func(t *testing.T) {
			credit := func(k int64) int64 { return burst + rate*(k+1)*pacerTick/second }
			s := script{}
			for i, offered := 0, 0; int64(offered) <= credit(ticks)+maxPkt; i++ { // backlog past the last tick's credit
				s = s.do(cPost).w(i%flows, sizes[i%len(sizes)])
				offered += sizes[i%len(sizes)]
			}
			cfg := Config{Shards: 4, NumFlows: 256, NumSegments: 1 << 15,
				PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst}}
			h := runEngine(t, cfg, true, s.do(cServe, 0).rep(ticks, cClock, 0))
			var onShard [4]bool
			for f := range flows {
				onShard[h.e.shardIndex(uint32(f))] = true
			}
			if onShard != [4]bool{true, true, true, true} {
				t.Fatalf("backlog covers shards %v, want all four", onShard)
			}
			var total int64
			for k, next := int64(0), 0; k <= ticks; k++ {
				for ; next < len(h.departed) && h.departed[next].tick == k; next++ {
					total += int64(h.departed[next].pkt.bytes)
				}
				if hi := credit(k); total < hi-k || total >= hi+maxPkt {
					t.Fatalf("tick %d: %d bytes sent, want within [%d, %d)", k, total, hi-k, hi+maxPkt)
				}
			}
		})
	}
}

// TestShapedPortSharesAcrossShards pins the cross-shard interleave of a
// shaped port whose every shard is backlogged: a tick's burst comes from
// the one shard the rotation starts on, and the start moves on a shard a
// tick, so each shard is served every Shards ticks, a tick's budget each.
func TestShapedPortSharesAcrossShards(t *testing.T) {
	const shards, rate, burst, ticks = 4, 2_000_000, 64, 64
	const perTick = rate * int64(pacerTick) / int64(second)
	s := script{}
	for _, f := range flowPerShard(t, newTest(t, shards, 64, 64)) {
		// A quarter of the run's credit and two tick budgets more each.
		s = s.rep(int((burst+perTick*(ticks+1))/shards+2*perTick)/64, cPost, int(f), segsArg(1))
	}
	h := runEngine(t, Config{Shards: shards, NumFlows: 64, NumSegments: 1 << 14,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst}}, true,
		s.do(cServe, 0).rep(ticks, cClock, 0))
	var served [ticks + 1][]int // the shards each tick's departures came from
	for _, d := range h.departed {
		if sh := h.e.shardIndex(d.flow); !slices.Contains(served[d.tick], sh) {
			served[d.tick] = append(served[d.tick], sh)
		}
	}
	for k := 1; k <= ticks; k++ {
		if len(served[k]) != 1 || served[k][0] != (served[k-1][0]+1)%shards {
			t.Fatalf("ticks %d and %d served shards %v and %v, want one each, in turn", k-1, k, served[k-1], served[k])
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
