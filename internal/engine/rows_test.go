package engine

// One queue table for one flow space: each shard's queue.Manager has a row
// for every flow the shard owns and for no other, numbered in flow-ID order,
// and what a caller reads back — errors above all — still speaks of flows.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"npqm/internal/queue"
)

// TestQueueTableRowsFollowFlowOrder: every shard's rows are 0…n−1 over the
// flows it owns in increasing flow-ID order (the order that keeps LQD's
// in-shard tie-break), flowOf inverts flowState.row, shardIndex is the
// Fibonacci hash it always was, and the tables — each at least one row,
// since NumQueues 0 asks for the default — cover the flow space exactly
// once. (3, 8) leaves shards that own no flow.
func TestQueueTableRowsFollowFlowOrder(t *testing.T) {
	for _, c := range []struct{ flows, shards int }{{32768, 4}, {1000, 8}, {3, 8}, {1 << 20, 8}} {
		t.Run(fmt.Sprintf("flows=%d/shards=%d", c.flows, c.shards), func(t *testing.T) {
			if c.flows > 1<<16 && testing.Short() {
				t.Skip("1M-flow table skipped in -short mode")
			}
			e, err := New(Config{Shards: c.shards, NumFlows: c.flows, NumSegments: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			shift := 32 - bits.TrailingZeros(uint(c.shards))
			for f := 0; f < c.flows; f++ {
				if got, want := e.shardIndex(uint32(f)), int((uint32(f)*0x9E3779B1)>>shift); got != want {
					t.Fatalf("shardIndex(%d) = %d, want %d", f, got, want)
				}
			}
			owned, empty := 0, 0
			for i, s := range e.shards {
				n := s.m.NumQueues()
				if n < 1 || n != max(len(s.flowOf), 1) {
					t.Fatalf("shard %d: %d rows for %d flows", i, n, len(s.flowOf))
				}
				for r, f := range s.flowOf {
					if r > 0 && f <= s.flowOf[r-1] {
						t.Fatalf("shard %d: row %d holds flow %d after flow %d", i, r, f, s.flowOf[r-1])
					}
					if e.shardIndex(f) != i {
						t.Fatalf("shard %d: row %d holds flow %d, which hashes to shard %d", i, r, f, e.shardIndex(f))
					}
					if got := e.flows[f].row; got != uint32(r) {
						t.Fatalf("shard %d: flowOf[%d] = %d but that flow's row is %d", i, r, f, got)
					}
				}
				owned += len(s.flowOf)
				if len(s.flowOf) == 0 {
					empty++
				}
			}
			if owned != c.flows {
				t.Fatalf("the shards own %d flows of %d", owned, c.flows)
			}
			if c.flows < c.shards && empty == 0 {
				t.Fatalf("%d flows over %d shards left no shard empty", c.flows, c.shards)
			}
		})
	}
}

// TestErrorsNameTheFlow: every entry point that hands a flow to a queue
// manager reports the manager's sentinel for errors.Is and a message about
// the caller's flow, as the model words it. Inside the space a manager error
// names "queue <flow>", never the shard-local row; past it the flow is
// refused before anything indexes the flow table (ErrBadQueue, or
// ErrUnknownFlow on the calls that always said so), no counter moves and
// EnqueueAsync, before and after Start, says nothing.
func TestErrorsNameTheFlow(t *testing.T) {
	const flows, pkt = 1000, queue.SegmentBytes
	e := newTest(t, 8, flows, 256)
	for _, flow := range []uint32{0, flows - 1, flows, math.MaxUint32} {
		f := int(min(flow, 0xFFFF)) // the wide flow argument past NumFlows is math.MaxUint32
		s := script{}
		if flow >= flows {
			// A packet a refused move must leave alone, then every entry
			// point; the view byte follows a dequeue's flow.
			s = s.do(cEnqueue).w(0, pkt).do(cEnqueue).w(f, pkt).do(cBatch, 0).w(f, pkt).do(cReserve).w(f, pkt).
				do(cDequeue).w(f).do(0).do(cDequeue).w(f).do(1).do(cDequeueBatch, 0).w(f).do(1).do(cDelete).w(f).
				do(cMove).w(0, f).do(cMove).w(f, 0).do(cRead).w(f).do(cLimit).w(f).do(1).do(cPost).w(f, pkt).do(cRead).w(0)
		} else {
			// A partner on the flow's own shard and one on another, so both
			// move bodies are asked.
			var near, far int
			for g := 1; near == 0 || far == 0; g++ {
				switch same := e.shardIndex(uint32((f+g)%flows)) == e.shardIndex(flow); {
				case same && near == 0:
					near = (f + g) % flows
				case !same && far == 0:
					far = (f + g) % flows
				}
			}
			s = s.do(cDequeue).w(f).do(0).do(cDequeue).w(f).do(1).do(cDequeueBatch, 0).w(f).do(0).do(cDelete).w(f).
				do(cMove).w(f, near).do(cMove).w(f, far).do(cLimit).w(f).do(1).do(cRead).w(f).
				do(cEnqueue).w(f, pkt).do(cPost).w(f, pkt).do(cEnqueue).w(f, pkt).do(cReserve).w(f, pkt)
			for _, other := range []int{near, far} {
				s = s.do(cEnqueue).w(other, pkt).do(cMove).w(other, f)
			}
			s = s.do(cRead).w(f)
		}
		t.Run(fmt.Sprint(flow), func(t *testing.T) {
			for _, started := range []bool{false, true} {
				runEngine(t, Config{Shards: 8, NumFlows: flows, NumSegments: 256}, started, s)
			}
		})
	}
}
