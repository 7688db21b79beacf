package engine

// Tests of the one delivery path: every way of taking a packet out of the
// engine — copy or view, before or after Start, through any entry point —
// must hand over the same packets, whether a port's sink reads the view in
// place or copies it out.

import (
	"errors"
	"fmt"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/xrand"
)

// serveAs registers fn as port's consumer. With view false fn is the sink
// that wants contiguous bytes: it gets the packet as Data, copied out of the
// view with AppendTo, which is how a copy-form consumer attaches to push
// delivery.
func serveAs(e *Engine, port int, view bool, fn func(d Dequeued) error) error {
	return e.ServeViews(port, SinkVFunc(func(_ int, d DequeuedView) error {
		if !view {
			d.Data, d.View = d.View.AppendTo(nil), PacketView{}
		}
		return fn(d)
	}))
}

// TestReServeDoesNotBookOutageAsGap: a port re-armed after a sink error
// starts a fresh inter-departure sequence, whichever kind of sink re-arms
// it. The departure before the failure must not pair with the first one
// after the re-arm, or the whole outage lands in the pacing-jitter
// statistics as one gap.
func TestReServeDoesNotBookOutageAsGap(t *testing.T) {
	for _, view := range []bool{false, true} {
		t.Run(fmt.Sprintf("view=%v", view), func(t *testing.T) {
			e := newStepped(t, Config{
				Shards: 1, NumFlows: 8, NumSegments: 4096,
				PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 20, BurstBytes: 1024}, // ~1ms per packet
			})
			defer e.Close()
			pkt := make([]byte, 1024)
			enqueue := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Five departures stamp the port (three in the opening burst, then
			// one a tick), the sixth packet kills the link.
			enqueue(8)
			sent := 0
			if err := serveAs(e.Engine, 0, view, func(Dequeued) error {
				if sent == 5 {
					return errors.New("link down")
				}
				sent++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			e.settle()
			e.tick(5)
			if pst := e.PortStats()[0]; pst.Serving || pst.GapSamples != 4 {
				t.Fatalf("before the outage: serving=%v with %d gaps, want a stopped port and 4 gaps for the re-arm to protect", pst.Serving, pst.GapSamples)
			}
			const outage = 140
			e.tick(outage)
			enqueue(4)
			if err := serveAs(e.Engine, 0, view, func(Dequeued) error { return nil }); err != nil {
				t.Fatalf("re-arm after sink stop: %v", err)
			}
			e.settle()
			e.tick(10)
			if st := e.Stats(); st.QueuedSegments != 0 || st.LentSegments != 0 {
				t.Fatalf("%d segments queued, %d lent after the re-armed drain", st.QueuedSegments, st.LentSegments)
			}
			// Every gap on either side of the outage is at most a tick; the
			// p99 of so few samples is the longest of them.
			if pst := e.PortStats()[0]; pst.GapSamples <= 4 || pst.P99GapNs >= 2*uint64(pacerTick) {
				t.Fatalf("p99 inter-departure gap %dns over %d samples with a %dms outage between them: downtime was booked as pacing jitter",
					pst.P99GapNs, pst.GapSamples, outage)
			}
		})
	}
}

// --- delivery equivalence ---

// eqEntry is one way out of the engine: the command that takes packets out
// through it.
type eqEntry int

const (
	entryPacket    eqEntry = iota // DequeuePacket / DequeuePacketView
	entryBatch                    // DequeueBatch / DequeuePacketView in its order
	entryNext                     // DequeueNext / DequeueNextView
	entryNextBatch                // DequeueNextBatch / DequeueNextViewBatch
	entryServe                    // ServeViews, the sink copying out or holding the view
	numEntries
)

var eqEntryNames = [numEntries]string{"DequeuePacket", "DequeueBatch", "DequeueNext", "DequeueNextBatch", "Serve"}

// equivalenceScript is one seeded arrival script taking packets out through
// one entry point in one form (v: 0 copy, 1 view): 24 bursts (8 under -race) on 24 flows of 64 (the odd arrival
// on a flow outside the flow space, whose refusal no counter books), each
// followed by a partial drain, with the views handed back as a burst ends.
// On a started engine the arrivals of each flow alternate between
// EnqueueAsync and EnqueuePacket. Flows alternate between two ports and
// two classes.
func equivalenceScript(seed uint64, entry eqEntry, v int, started bool) script {
	const flows, bad = 24, 64
	rng := xrand.New(seed)
	s := script{}
	for f := range flows {
		s = s.do(cRehome, f, f%2<<2).do(cRehome, f, 2|f/2%2<<2)
	}
	var backlog [flows]int
	var posted [flows + 1]bool
	steps := 24
	if raceEnabled {
		steps = 8
	}
	for range steps {
		for n := 1 + rng.Intn(40); n > 0; n-- {
			size := bytesArg(1 + rng.Intn(1600))
			switch rng.Intn(16) {
			case 0:
				size = bytesArg(1 + rng.Intn(64)) // one segment
			case 1:
				size = 254 // the largest packet a command can carry
			}
			flow := rng.Intn(flows)
			if rng.Intn(32) == 0 {
				flow = bad
			} else {
				backlog[flow]++
			}
			op, p := cEnqueue, &posted[min(flow, flows)]
			if *p = started && !*p; *p {
				op = cPost
			}
			s = s.do(op, flow, size)
		}
		drain := rng.Intn(50)
		switch entry {
		case entryPacket, entryBatch:
			var list []int
			for f := 0; len(list) < drain && f < flows; f++ {
				for ; backlog[f] > 0 && len(list) < drain; backlog[f]-- {
					list = append(list, f)
				}
			}
			for i, f := range list {
				if entry == entryPacket {
					s = s.do(cDequeue, f, v)
				} else if i%8 == 0 {
					batch := list[i:min(i+8, len(list))]
					s = s.do(cDequeueBatch, append(append([]int{len(batch) - 1}, batch...), v)...)
				}
			}
		case entryNext:
			s = s.rep(drain, cNext, v)
		case entryNextBatch:
			s = s.rep((drain+7)/8, cNextBatch, v|8<<1)
		case entryServe:
			s = s.do(cServe, 0|v<<4).do(cServe, 1|v<<4)
		}
		s = s.do(cRelease, 1)
	}
	return s
}

// TestDeliveryEquivalence replays one seeded arrival script on a fresh
// engine per cell of {copy, view} × {sync: before Start, ring: after Start}
// × entry point, holding every cell to the reference model: each flow's
// delivery sequence is the script's admitted packets in arrival order, the
// counters and the invariants hold after every command, and every segment
// comes back. A serving sink that asks for copies copies out of the view;
// one that asks for views holds every view it is handed until the burst
// ends. The egress runs DRR at the flow and the class level, so the picked
// entry points exercise every charge take makes and the per-flow ones none.
func TestDeliveryEquivalence(t *testing.T) {
	for _, dp := range []string{"sync", "ring"} {
		for v := range 2 { // copy, view
			for entry := eqEntry(0); entry < numEntries; entry++ {
				t.Run(fmt.Sprintf("%s/view=%v/%s", dp, v == 1, eqEntryNames[entry]), func(t *testing.T) {
					runEngine(t, Config{
						Shards: 4, NumFlows: 64, NumSegments: 4096, NumPorts: 2,
						Egress: policy.EgressConfig{
							Kind: policy.EgressDRR, QuantumBytes: 700,
							Levels: []policy.LevelSpec{{Tier: policy.TierClass, Kind: policy.EgressDRR, Units: 2, QuantumBytes: 900}},
						},
					}, dp == "ring", equivalenceScript(20260928, entry, v, dp == "ring"))
				})
			}
		}
	}
}
