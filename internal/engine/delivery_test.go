package engine

// Tests of the one delivery path: every way of taking a packet out of the
// engine — copy or view, before or after Start, through any entry point —
// must hand over the same packets, whether a port's sink reads the view in
// place or copies it out.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

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

// An arrival script: bursts of packets, each followed by a partial drain.
// Payloads are unique, so a delivered packet identifies its arrival.
type (
	scriptArrival struct {
		flow    uint32
		payload []byte
	}
	scriptStep struct {
		arrivals []scriptArrival
		drain    int // packets to take out after the burst
	}
)

const (
	eqFlows    = 24 // flows the script offers traffic on; 0..eqFlows-1
	eqNumFlows = 64
	eqBadFlow  = eqNumFlows + 5 // outside the flow space: a refusal that does not depend on occupancy
	eqPool     = 1 << 15
	eqPorts    = 2
)

func equivalenceScript(seed uint64) []scriptStep {
	rng := xrand.New(seed)
	steps := make([]scriptStep, 24)
	serial := uint32(0)
	for i := range steps {
		st := &steps[i]
		for n := 1 + rng.Intn(40); n > 0; n-- {
			size := 1 + rng.Intn(1600)
			switch rng.Intn(16) {
			case 0:
				size = 1 + rng.Intn(64) // one segment
			case 1:
				size = 4097 + rng.Intn(2000) // past the largest pooled buffer
			}
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(rng.Uint32())
			}
			if size >= 4 {
				p[0], p[1], p[2], p[3] = byte(serial), byte(serial>>8), byte(serial>>16), byte(serial>>24)
			}
			serial++
			flow := uint32(rng.Intn(eqFlows))
			if rng.Intn(32) == 0 {
				flow = eqBadFlow
			}
			st.arrivals = append(st.arrivals, scriptArrival{flow, p})
		}
		st.drain = rng.Intn(50)
	}
	return steps
}

// eqEntry is one way out of the engine.
type eqEntry int

const (
	entryPacket    eqEntry = iota // DequeuePacket / DequeuePacketView
	entryBatch                    // DequeueBatch / DequeueViewBatch
	entryNext                     // DequeueNext / DequeueNextView
	entryNextBatch                // DequeueNextBatch / DequeueNextViewBatch
	entryServe                    // ServeViews, the sink copying out (AppendTo) or reading in place
	numEntries
)

var eqEntryNames = [numEntries]string{"DequeuePacket", "DequeueBatch", "DequeueNext", "DequeueNextBatch", "Serve"}

// eqTraffic is the part of Stats every cell must agree on.
type eqTraffic struct {
	enqP, enqS, deqP, deqS, rejected, dropP, dropS, poP, poS uint64
}

func trafficOf(st Stats) eqTraffic {
	return eqTraffic{st.EnqueuedPackets, st.EnqueuedSegments, st.DequeuedPackets, st.DequeuedSegments,
		st.Rejected, st.DroppedPackets, st.DroppedSegments, st.PushedOutPackets, st.PushedOutSegments}
}

// eqRun replays the script on a fresh engine, taking packets out through one
// entry point in one delivery form.
type eqRun struct {
	t     *testing.T
	e     *Engine
	view  bool
	entry eqEntry
	// posts makes every other arrival of a flow an EnqueueAsync (the engine
	// is started), so what reaches the flow's queue in script order got
	// there through drain-on-entry.
	posts  bool
	posted [eqFlows + 1]bool // per flow (bad flows share the last slot): was the last arrival posted?

	mu      sync.Mutex
	queued  [eqFlows][][]byte // admitted, not yet delivered, per flow in arrival order
	backlog int
	held    []Dequeued // pulled views, released when the step ends
	cursor  int        // rotating flow for the per-flow entry points
	sinkErr error      // first record failure seen by a serving sink
}

// record checks that a delivered packet is, byte for byte, the oldest
// undelivered arrival of its flow — which makes every flow's delivery
// sequence the script's — and retires it. Called from the test goroutine,
// or from a pacer when serving.
func (r *eqRun) record(d Dequeued) error {
	var payload []byte
	if r.view {
		if d.Data != nil || !d.View.Valid() {
			return fmt.Errorf("flow %d: view delivery produced Data=%v View.Valid=%v", d.Flow, d.Data != nil, d.View.Valid())
		}
		payload = d.View.AppendTo(nil)
	} else {
		if d.View.Valid() {
			return fmt.Errorf("flow %d: copy delivery produced a view", d.Flow)
		}
		payload = append([]byte(nil), d.Data...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Bytes != len(payload) {
		return fmt.Errorf("flow %d: Bytes %d for a %d-byte payload", d.Flow, d.Bytes, len(payload))
	}
	if d.Flow >= eqFlows || len(r.queued[d.Flow]) == 0 {
		return fmt.Errorf("flow %d delivered a packet with none outstanding", d.Flow)
	}
	if !bytes.Equal(payload, r.queued[d.Flow][0]) {
		return fmt.Errorf("flow %d: delivered packet is not the flow's oldest (per-flow FIFO or payload broken)", d.Flow)
	}
	r.queued[d.Flow] = r.queued[d.Flow][1:]
	r.backlog--
	return nil
}

// pulled files a packet a pull entry point returned and settles (copy) or
// parks (view) what the caller owns.
func (r *eqRun) pulled(d Dequeued) {
	r.t.Helper()
	if err := r.record(d); err != nil {
		r.t.Fatal(err)
	}
	if r.view {
		r.held = append(r.held, d)
	} else {
		r.e.ReleaseBuffer(d.Data)
	}
}

// nextFlows names n queued packets by flow, rotating over the backlogged
// flows; a flow is listed as often as it has packets to give.
func (r *eqRun) nextFlows(n int) []uint32 {
	var left [eqFlows]int
	for f := range left {
		left[f] = len(r.queued[f])
	}
	flows := make([]uint32, 0, n)
	for len(flows) < n {
		f := r.cursor % eqFlows
		r.cursor++
		if left[f] > 0 {
			left[f]--
			flows = append(flows, uint32(f))
		}
	}
	return flows
}

// drain takes n packets (n ≤ backlog) out through the run's entry point.
func (r *eqRun) drain(n int) {
	t, e := r.t, r.e
	t.Helper()
	switch r.entry {
	case entryPacket:
		for _, f := range r.nextFlows(n) {
			d := Dequeued{Flow: f}
			var err error
			if r.view {
				d.View, err = e.DequeuePacketView(f)
				d.Bytes = d.View.Len()
			} else {
				d.Data, err = e.DequeuePacket(f)
				d.Bytes = len(d.Data)
			}
			if err != nil {
				t.Fatalf("dequeue flow %d: %v", f, err)
			}
			r.pulled(d)
		}
	case entryBatch:
		flows := r.nextFlows(n)
		var pkts [][]byte
		var views []PacketView
		var errs []error
		if r.view {
			views, errs = e.DequeueViewBatch(flows)
		} else {
			pkts, errs = e.DequeueBatch(flows)
		}
		for i, f := range flows {
			if errs[i] != nil {
				t.Fatalf("batch slot %d (flow %d): %v", i, f, errs[i])
			}
			d := Dequeued{Flow: f}
			if r.view {
				d.View, d.Bytes = views[i], views[i].Len()
			} else {
				d.Data, d.Bytes = pkts[i], len(pkts[i])
			}
			r.pulled(d)
		}
	case entryNext:
		for i := 0; i < n; i++ {
			next := e.DequeueNext
			if r.view {
				next = e.DequeueNextView
			}
			d, ok := next()
			if !ok {
				t.Fatalf("engine reported empty with %d packets queued", r.backlog)
			}
			r.pulled(d)
		}
	case entryNextBatch:
		for n > 0 {
			next := e.DequeueNextBatch
			if r.view {
				next = e.DequeueNextViewBatch
			}
			out := next(n)
			if len(out) == 0 || len(out) > n {
				t.Fatalf("batch of %d returned %d packets with %d queued", n, len(out), r.backlog)
			}
			for _, d := range out {
				r.pulled(d)
			}
			n -= len(out)
		}
	}
}

// settle ends a step: invariants hold with the step's views still out,
// then the views go back.
func (r *eqRun) settle() {
	t, e := r.t, r.e
	t.Helper()
	if r.entry == entryServe {
		// The pacers drain everything; the books are quiet once the last
		// burst's views are back.
		waitUntil(t, 20*time.Second, "served backlog", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.sinkErr != nil {
				t.Fatal(r.sinkErr)
			}
			return r.backlog == 0
		})
		waitUntil(t, 20*time.Second, "served views released", func() bool { return e.LentSegments() == 0 })
	}
	if len(r.held) > 0 && e.LentSegments() == 0 {
		t.Fatal("views outstanding but no segment is lent")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if r.entry == entryPacket || r.entry == entryNext {
		for _, d := range r.held {
			d.View.Release()
		}
	} else {
		e.ReleaseViews(r.held)
	}
	r.held = r.held[:0]
}

func (r *eqRun) replay(script []scriptStep) {
	t, e := r.t, r.e
	t.Helper()
	if r.entry == entryServe {
		for p := 0; p < eqPorts; p++ {
			err := serveAs(e, p, r.view, func(d Dequeued) error {
				err := r.record(d)
				if err != nil {
					r.mu.Lock()
					if r.sinkErr == nil {
						r.sinkErr = err
					}
					r.mu.Unlock()
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range script {
		for _, a := range st.arrivals {
			// The model is updated first: a pacer may deliver the packet
			// before EnqueuePacket returns.
			good := a.flow < eqFlows
			if good {
				r.mu.Lock()
				r.queued[a.flow] = append(r.queued[a.flow], a.payload)
				r.backlog++
				r.mu.Unlock()
			}
			if was := &r.posted[min(a.flow, eqFlows)]; r.posts && !*was {
				*was = true
				if err := e.EnqueueAsync(a.flow, a.payload); err != nil {
					t.Fatalf("post on flow %d: %v", a.flow, err)
				}
			} else {
				*was = false
				if _, err := e.EnqueuePacket(a.flow, a.payload); (err == nil) != good {
					t.Fatalf("enqueue on flow %d: %v", a.flow, err)
				}
			}
		}
		if r.entry != entryServe {
			r.drain(min(st.drain, r.backlog))
		}
		if r.posts {
			// settle checks the books, which are quiet only once the last
			// flows' trailing posts have been executed.
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		r.settle()
	}
	if r.entry != entryServe {
		r.drain(r.backlog)
		r.settle()
	}
}

// TestDeliveryEquivalence replays one seeded arrival script on a fresh
// engine per cell of {copy, view} × {sync: before Start, ring: after Start}
// × entry point. After Start the arrivals of each flow alternate between
// EnqueueAsync and EnqueuePacket, so the order the cell checks is the one
// drain-on-entry keeps. Every cell must deliver, per flow, exactly the
// script's admitted payloads in arrival order, finish with the same traffic
// counters, hold the engine invariants after every step, and give every
// segment back.
// The egress runs DRR at the flow and the class level, so the picked entry
// points exercise every charge take makes and the per-flow ones none.
func TestDeliveryEquivalence(t *testing.T) {
	script := equivalenceScript(20260928)
	var wantTraffic eqTraffic
	for _, st := range script {
		for _, a := range st.arrivals {
			if a.flow >= eqFlows {
				continue // refused as a bad call, which no counter books
			}
			segs := uint64(segsFor(len(a.payload)))
			wantTraffic.enqP++
			wantTraffic.enqS += segs
			wantTraffic.deqP++
			wantTraffic.deqS += segs
		}
	}
	datapaths := []struct {
		name    string
		started bool
	}{{"sync", false}, {"ring", true}}
	for _, dp := range datapaths {
		for _, view := range []bool{false, true} {
			for entry := eqEntry(0); entry < numEntries; entry++ {
				name := fmt.Sprintf("%s/view=%v/%s", dp.name, view, eqEntryNames[entry])
				t.Run(name, func(t *testing.T) {
					e, err := New(Config{
						Shards: 4, NumFlows: eqNumFlows, NumSegments: eqPool,
						NumPorts: eqPorts,
						Egress: policy.EgressConfig{
							Kind: policy.EgressDRR, QuantumBytes: 700,
							Levels: []policy.LevelSpec{{Tier: policy.TierClass, Kind: policy.EgressDRR, Units: 2, QuantumBytes: 900}},
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					for f := uint32(0); f < eqFlows; f++ {
						if err := e.SetFlowPort(f, int(f)%eqPorts); err != nil {
							t.Fatal(err)
						}
						if err := e.SetFlowClass(f, int(f/2)%2); err != nil {
							t.Fatal(err)
						}
					}
					if dp.started {
						if err := e.Start(); err != nil {
							t.Fatal(err)
						}
					}
					r := &eqRun{t: t, e: e, view: view, entry: entry, posts: dp.started}
					r.replay(script)

					if r.backlog != 0 {
						t.Fatalf("%d admitted packets were never delivered", r.backlog)
					}
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
					st := e.Stats()
					if got := trafficOf(st); got != wantTraffic {
						t.Fatalf("traffic counters %+v, want %+v", got, wantTraffic)
					}
					if view && st.CopiedBytes != copiedIn(script) {
						t.Fatalf("view delivery copied out: CopiedBytes %d, enqueues alone copied %d", st.CopiedBytes, copiedIn(script))
					}
					if entry == entryServe && st.TransmittedPackets != wantTraffic.deqP {
						t.Fatalf("ports transmitted %d packets, want %d", st.TransmittedPackets, wantTraffic.deqP)
					}
					checkNoLeaks(t, e, eqPool)
				})
			}
		}
	}
}

// copiedIn is what the script's admitted enqueues charge to CopiedBytes.
func copiedIn(script []scriptStep) (n uint64) {
	for _, st := range script {
		for _, a := range st.arrivals {
			if a.flow < eqFlows {
				n += uint64(len(a.payload))
			}
		}
	}
	return n
}
