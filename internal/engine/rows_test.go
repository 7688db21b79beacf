package engine

// One queue table for one flow space: each shard's queue.Manager has a row
// for every flow the shard owns and for no other, numbered in flow-ID order,
// and what a caller reads back — errors above all — still speaks of flows.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"npqm/internal/queue"
)

// TestQueueTableRowsFollowFlowOrder: every shard's rows are 0…n−1 over the
// flows it owns in increasing flow-ID order (the order that keeps LQD's
// in-shard tie-break), flowOf inverts flowState.row, ShardOf is the
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
				if got, want := e.ShardOf(uint32(f)), int((uint32(f)*0x9E3779B1)>>shift); got != want {
					t.Fatalf("ShardOf(%d) = %d, want %d", f, got, want)
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
					if e.ShardOf(f) != i {
						t.Fatalf("shard %d: row %d holds flow %d, which hashes to shard %d", i, r, f, e.ShardOf(f))
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
// the caller's flow. Inside the space a manager error names "queue <flow>",
// never the shard-local row; past it the flow is refused before anything
// indexes the flow table (ErrBadQueue, or ErrUnknownFlow on the calls that
// always said so), no counter moves and EnqueueAsync, before and after
// Start, says nothing.
func TestErrorsNameTheFlow(t *testing.T) {
	const flows, pool = 1000, 256
	for _, flow := range []uint32{0, flows - 1, flows, math.MaxUint32} {
		t.Run(fmt.Sprint(flow), func(t *testing.T) {
			e, err := New(Config{Shards: 8, NumFlows: flows, NumSegments: pool, StoreData: true})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			pkt := make([]byte, queue.SegmentBytes)
			expect := func(what string, err, sentinel error, suffix string) {
				t.Helper()
				if !errors.Is(err, sentinel) {
					t.Fatalf("%s: %v, want %v", what, err, sentinel)
				}
				if !strings.HasSuffix(err.Error(), suffix) {
					t.Fatalf("%s: %q does not end in %q", what, err, suffix)
				}
			}
			if flow >= flows {
				bad := fmt.Sprintf(": %d (have %d)", flow, flows)
				if _, err := e.EnqueuePacket(0, pkt); err != nil { // a packet a refused move must leave alone
					t.Fatal(err)
				}
				_, err := e.EnqueuePacket(flow, pkt)
				expect("EnqueuePacket", err, queue.ErrBadQueue, bad)
				_, errs := e.EnqueueBatch([]EnqueueReq{{flow, pkt}})
				expect("EnqueueBatch", errs[0], queue.ErrBadQueue, bad)
				_, err = e.ReservePacket(flow, len(pkt))
				expect("ReservePacket", err, queue.ErrBadQueue, bad)
				_, err = e.DequeuePacket(flow)
				expect("DequeuePacket", err, queue.ErrBadQueue, bad)
				_, err = e.DequeuePacketView(flow)
				expect("DequeuePacketView", err, queue.ErrBadQueue, bad)
				_, errs = e.DequeueViewBatch([]uint32{flow})
				expect("DequeueViewBatch", errs[0], queue.ErrBadQueue, bad)
				_, err = e.DeletePacket(flow)
				expect("DeletePacket", err, queue.ErrBadQueue, bad)
				_, err = e.MovePacket(0, flow)
				expect("MovePacket to", err, queue.ErrBadQueue, bad)
				_, err = e.MovePacket(flow, 0)
				expect("MovePacket from", err, queue.ErrBadQueue, bad)
				_, err = e.Len(flow)
				expect("Len", err, queue.ErrBadQueue, bad)
				expect("SetFlowLimit", e.SetFlowLimit(flow, 1), ErrUnknownFlow, ErrUnknownFlow.Error())
				_, err = e.Flow(flow)
				expect("Flow", err, ErrUnknownFlow, ErrUnknownFlow.Error())
				for _, started := range []bool{false, true} {
					if started {
						if err := e.Start(); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.EnqueueAsync(flow, pkt); err != nil {
						t.Fatalf("EnqueueAsync (started %v): %v, want nil", started, err)
					}
				}
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				if n, err := e.Len(0); err != nil || n != 1 {
					t.Fatalf("flow 0 holds %d segments (%v) after the refused moves, want 1", n, err)
				}
				if st := e.Stats(); st.EnqueuedPackets != 1 || st.DroppedPackets != 0 || st.Rejected != 0 {
					t.Fatalf("refused flows were counted: enqueued %d, dropped %d, rejected %d",
						st.EnqueuedPackets, st.DroppedPackets, st.Rejected)
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				return
			}

			empty := fmt.Sprintf(": queue %d", flow)
			full := fmt.Sprintf(": queue %d cannot accept 1 segments", flow)
			_, err = e.DequeuePacket(flow)
			expect("DequeuePacket", err, queue.ErrQueueEmpty, empty)
			_, err = e.DequeuePacketView(flow)
			expect("DequeuePacketView", err, queue.ErrQueueEmpty, empty)
			_, errs := e.DequeueBatch([]uint32{flow})
			expect("DequeueBatch", errs[0], queue.ErrQueueEmpty, empty)
			_, err = e.DeletePacket(flow)
			expect("DeletePacket", err, queue.ErrQueueEmpty, empty)
			// A partner on the flow's own shard and one on another, so both
			// move bodies are asked.
			var near, far uint32
			for f := uint32(0); f < flows; f++ {
				switch {
				case f == flow:
				case e.ShardOf(f) == e.ShardOf(flow) && near == 0:
					near = f
				case e.ShardOf(f) != e.ShardOf(flow) && far == 0:
					far = f
				}
			}
			for _, other := range []uint32{near, far} {
				_, err = e.MovePacket(flow, other)
				expect(fmt.Sprintf("MovePacket(%d, %d)", flow, other), err, queue.ErrQueueEmpty, empty)
			}
			if err := e.SetFlowLimit(flow, 1); err != nil {
				t.Fatal(err)
			}
			if fi, err := e.Flow(flow); err != nil || fi.Limit != 1 {
				t.Fatalf("Flow = (%+v, %v), want limit 1", fi, err)
			}
			if _, err := e.EnqueuePacket(flow, pkt); err != nil {
				t.Fatal(err)
			}
			if err := e.EnqueueAsync(flow, pkt); err != nil {
				t.Fatal(err)
			}
			_, err = e.EnqueuePacket(flow, pkt)
			expect("EnqueuePacket over the cap", err, queue.ErrQueueLimit, full)
			_, err = e.ReservePacket(flow, len(pkt))
			expect("ReservePacket over the cap", err, queue.ErrQueueLimit, full)
			for _, other := range []uint32{near, far} {
				if _, err := e.EnqueuePacket(other, pkt); err != nil {
					t.Fatal(err)
				}
				_, err = e.MovePacket(other, flow)
				expect(fmt.Sprintf("MovePacket(%d, %d) over the cap", other, flow), err, queue.ErrQueueLimit, full)
			}
			if n, err := e.Len(flow); err != nil || n != 1 {
				t.Fatalf("Len = (%d, %v), want (1, nil)", n, err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
