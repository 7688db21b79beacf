package engine

// Tests of the port-level transmit subsystem: flow→port mapping,
// push-mode delivery through ServeViews, token-bucket pacing, pause/resume
// flow control, and the interplay with both datapaths and Close.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// stallLimit is how long waitServed lets an engine go without dequeuing a
// packet or freeing a segment before it calls the wait a hang.
const stallLimit = 5 * time.Second

// waitServed waits until done holds. It has no deadline of its own: it
// fails once e has gone stallLimit without dequeuing a packet or freeing a
// segment, naming what it waited for and the backlog left. Before it fails
// it calls stop (if not nil), which must end the test's own goroutines and
// return once they have, and then closes e, which ends the engine's, so a
// failing test leaves nothing spinning into the tests after it.
// It spins for the first millisecond and polls every millisecond after, so
// a wait that is over in microseconds costs microseconds.
func waitServed(t *testing.T, e *Engine, what string, stop func(), done func() bool) {
	t.Helper()
	progress := func() [2]uint64 {
		st := e.Stats()
		return [2]uint64{st.DequeuedPackets, uint64(st.FreeSegments)}
	}
	var last [2]uint64
	start := time.Now()
	moved := start
	for !done() {
		if time.Since(start) < time.Millisecond {
			runtime.Gosched()
			continue
		}
		time.Sleep(time.Millisecond)
		p := progress()
		if p[0] != last[0] || p[1] > last[1] {
			moved = time.Now()
		}
		if last = p; time.Since(moved) > stallLimit {
			if stop != nil {
				stop()
			}
			st := e.Stats()
			e.Close()
			t.Fatalf("waiting for %s: nothing dequeued and no segment freed for %v; %d segments still queued, %d lent, %d free",
				what, stallLimit, st.QueuedSegments, st.LentSegments, st.FreeSegments)
		}
	}
}

// countingSink tallies deliveries per flow.
type countingSink struct {
	e  *Engine
	mu sync.Mutex
	n  int
	by map[uint32]int
}

func newCountingSink(e *Engine) *countingSink {
	return &countingSink{e: e, by: make(map[uint32]int)}
}

func (c *countingSink) SendView(_ int, d Dequeued) error {
	c.mu.Lock()
	c.n++
	c.by[d.Flow]++
	c.mu.Unlock()
	return nil
}

func (c *countingSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestPortConfigValidation: New refuses a port count out of range and a
// malformed port rate with an error naming what is wrong, and defaults to
// one port.
func TestPortConfigValidation(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		field string
	}{
		{Config{NumSegments: 64, NumPorts: -1}, "NumPorts"},
		{Config{NumSegments: 64, NumPorts: MaxPorts + 1}, "NumPorts"},
		{Config{NumSegments: 64, PortRate: policy.ShaperConfig{RateBytesPerSec: -5}}, "rate"},
		{Config{NumSegments: 64, PortRate: policy.ShaperConfig{BurstBytes: 100}}, "burst"}, // burst without rate
	} {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New(%+v) = %v, want an error naming %s", c.cfg, err, c.field)
		}
	}
	e, err := New(Config{NumSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Config().NumPorts; n != 1 {
		t.Fatalf("default NumPorts = %d, want 1", n)
	}
}

// TestServeDeliversBacklogAndLiveTraffic: a served port delivers the
// backlog it found, parks, and wakes for live traffic.
func TestServeDeliversBacklogAndLiveTraffic(t *testing.T) {
	s := script{}
	for f := range 32 {
		if s = s.do(cEnqueue, f, segsArg(3)); f == 15 {
			s = s.do(cServe, 0)
		}
	}
	h := runEngine(t, Config{Shards: 4, NumFlows: 64, NumSegments: 2048}, false, s.do(cServe, 0))
	if n := h.m.ports[0].txPackets; n != 32 {
		t.Fatalf("transmitted %d packets, want 32", n)
	}
}

// TestMultiPortPartition: four served ports each transmit exactly their own
// flows' packets, on either datapath.
func TestMultiPortPartition(t *testing.T) {
	const ports, flows = 4, 64
	s := script{}
	for f := range flows {
		s = s.do(cRehome, f, f%ports<<2)
	}
	for p := range ports {
		s = s.do(cServe, p)
	}
	for range 8 {
		for f := range flows {
			s = s.do(cEnqueue, f, segsArg(1))
		}
	}
	s = s.do(cServe, 0)
	for _, datapath := range []string{"sync", "ring"} {
		t.Run(datapath, func(t *testing.T) {
			h := runEngine(t, Config{Shards: 4, NumFlows: flows, NumSegments: 4096, NumPorts: ports}, datapath == "ring", s)
			for p, mp := range h.m.ports {
				if n := mp.txPackets; n != flows/ports*8 {
					t.Errorf("port %d transmitted %d packets, want %d", p, n, flows/ports*8)
				}
			}
		})
	}
}

// TestShapedPortPacesDelivery steps a shaped port through its whole
// schedule, the model holding every tick's departures to the byte: the
// 60th packet leaves on the first tick whose credit exceeds the 59 before
// it, 1024 + 1048·(k+1) > 59·1024 ⇔ k = 56, after a park per tick served.
func TestShapedPortPacesDelivery(t *testing.T) {
	const packets, lastTick = 60, 56
	s := script{}
	for i := range packets {
		s = s.do(cEnqueue).w(i%4, 1024)
	}
	h := runEngine(t, Config{Shards: 1, NumFlows: 256, NumSegments: 4096,
		PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 20, BurstBytes: 1024}}, false,
		s.do(cServe, 0).rep(lastTick, cClock, 0))
	if n, last := len(h.departed), h.departed[len(h.departed)-1].tick; n != packets || last != lastTick {
		t.Fatalf("%d of %d packets left, the last on tick %d; want all by tick %d", n, packets, last, lastTick)
	}
	if n := h.m.ports[0].throttled; n != lastTick+1 {
		t.Fatalf("throttled %d times, want %d", n, lastTick+1)
	}
	// One gap per departure after the first: the mean gap is the drain time
	// over those, and the longest gap is one tick, which the p99 may
	// overstate by a sub-bucket.
	pst := h.e.PortStats()[0]
	if pst.GapSamples != packets-1 || pst.MeanGapNs != lastTick*uint64(pacerTick)/(packets-1) {
		t.Fatalf("%d gaps of mean %dns, want %d of %dns", pst.GapSamples, pst.MeanGapNs, packets-1, lastTick*uint64(pacerTick)/(packets-1))
	}
	if pst.P99GapNs < uint64(pacerTick) || pst.P99GapNs >= uint64(pacerTick)*5/4 {
		t.Fatalf("p99 inter-departure gap %dns, want one tick (+25%%)", pst.P99GapNs)
	}
}

// TestPacerHorizonRepark: a wait longer than the wheel is served by parking
// at the horizon and parking again. 1500-byte packets at 1 KB/s leave 1.5 s
// apart — six parks each — and still on the exact tick, through more than
// ten seconds of engine time.
func TestPacerHorizonRepark(t *testing.T) {
	const packets = 9
	s := script{}
	for range packets {
		s = s.do(cEnqueue).w(0, 1500)
	}
	// The full bucket and the first tick's byte let two packets out at once;
	// each later one waits for the 1500 bytes its predecessor overdrew.
	want := []int64{0, 0}
	for k := int64(1); len(want) < packets; k++ {
		want = append(want, 1500*k)
	}
	end := want[packets-1]
	h := runEngine(t, Config{Shards: 1, NumFlows: 256, NumSegments: 4096,
		PortRate: policy.ShaperConfig{RateBytesPerSec: 1000, BurstBytes: 1500}}, false,
		s.do(cServe, 0).rep(int(end/256), cClock, 255).do(cClock, int(end%256)-1))
	var got []int64
	for _, d := range h.departed {
		got = append(got, d.tick)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("departure ticks %v, want %v", got, want)
	}
	// Parks: one per 255-tick horizon inside each 1500-tick wait (five), plus
	// the one that lands on the due tick, per packet after the burst; then
	// the park after the last departure.
	if got, want := h.m.ports[0].throttled, uint64(6*(packets-2)+1); got != want {
		t.Fatalf("throttled %d times, want %d", got, want)
	}
}

// TestPacerSixteenShapedPorts is the benchmark's ports16-shaped-push on one
// pacer, stepped: 16 ports at 2 MB/s of 64-byte packets each hold their own
// schedule at every tick, whatever their neighbours do. A backlogged port
// has sent what its bucket granted by the end of the tick served — the
// burst plus the rate's earnings, less up to a byte per tick the refill
// rounds away — and less than a packet more.
func TestPacerSixteenShapedPorts(t *testing.T) {
	const ports, rate, burst, ticks = 16, 2_000_000, 4096, 50
	credit := func(k int64) int64 { return burst + rate*(k+1)*pacerTick/second }
	// Each port starts with its first tick's credit queued and gets 32
	// packets more before every tick, a packet more than it may send. They
	// are posted: the books are checked when the clock moves.
	s := script{}
	for p := range ports {
		s = s.do(cRehome, p, p<<2).rep(96, cPost, p, segsArg(1)).do(cServe, p)
	}
	for range ticks {
		for p := range ports {
			s = s.rep(32, cPost, p, segsArg(1))
		}
		s = s.do(cClock, 0)
	}
	h := runEngine(t, Config{Shards: 1, NumFlows: 64, NumSegments: 4096, NumPorts: ports,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst}}, true, s)
	var sent [ports]int64
	for i, d := range h.departed {
		if sent[d.port] += int64(d.pkt.bytes); i+1 < len(h.departed) && h.departed[i+1].tick == d.tick {
			continue
		}
		for p, n := range sent {
			if hi := credit(d.tick); n < hi-d.tick || n >= hi+64 {
				t.Fatalf("tick %d: port %d sent %d bytes, want within [%d, %d)", d.tick, p, n, hi-d.tick, hi+64)
			}
		}
	}
}

// TestSinkPanicStopsOnlyItsPort: a sink that panics is a sink that failed.
// Its port stops and can be re-armed, the burst it was handed is settled,
// nothing stays lent, and the pacer goes on serving its other ports. The
// shaped arms run it with a tick's burst of 31 packets in hand — the batch
// a shaped port drains at once — and hold the bucket to what the sink
// accepted.
func TestSinkPanicStopsOnlyItsPort(t *testing.T) {
	const pktBytes = 3 * queue.SegmentBytes
	for _, shaped := range []bool{false, true} {
		for _, view := range []bool{false, true} {
			name, backlog, rate := fmt.Sprintf("view=%v", view), 10, policy.ShaperConfig{}
			if shaped {
				// 4096 + 2000 bytes of credit at the first instant: the whole
				// 31-packet backlog (5952 bytes) is one burst.
				name, backlog, rate = "shaped,"+name, 31, policy.ShaperConfig{RateBytesPerSec: 2_000_000, BurstBytes: 4096}
			}
			t.Run(name, func(t *testing.T) {
				e := newStepped(t, Config{Shards: 1, NumFlows: 8, NumSegments: 512, NumPorts: 2, PortRate: rate})
				if err := e.SetFlowPort(1, 1); err != nil {
					t.Fatal(err)
				}
				pkt := make([]byte, pktBytes)
				enqueue := func(n int) {
					t.Helper()
					for i := 0; i < n; i++ {
						for f := uint32(0); f < 2; f++ {
							if _, err := e.EnqueuePacket(f, pkt); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				enqueue(backlog)
				var got [2]int
				if err := serveAs(e.Engine, 0, view, func(Dequeued) error {
					if got[0]++; got[0] == 3 {
						panic("sink bug")
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if err := serveAs(e.Engine, 1, view, func(Dequeued) error { got[1]++; return nil }); err != nil {
					t.Fatal(err)
				}
				e.settle()
				pst := e.PortStats()
				// The transmit counters settle once per burst, after its last
				// SendView: the partial burst counts what the sink accepted.
				if pst[0].SinkPanics != 1 || pst[0].Serving || pst[0].TransmittedPackets != 2 || pst[0].TransmittedBytes != 2*pktBytes {
					t.Fatalf("panicked port: %+v, want 1 panic, stopped after 2 transmissions of %d bytes", pst[0], 2*pktBytes)
				}
				if pst[1].SinkPanics != 0 || !pst[1].Serving || got[1] != backlog ||
					pst[1].TransmittedPackets != uint64(backlog) || pst[1].TransmittedBytes != uint64(backlog*pktBytes) {
					t.Fatalf("sibling port delivered %d of %d: %+v", got[1], backlog, pst[1])
				}
				// The bucket paid for the two packets the sink accepted, not
				// for the one it died on or the rest of the burst.
				if want := rate.BurstBytes - 2*pktBytes; shaped && pst[0].ShaperTokens != want {
					t.Fatalf("panicked port's bucket holds %d bytes, want %d", pst[0].ShaperTokens, want)
				}
				// The whole picked burst is gone from the queues: two sent, one
				// lost in the panic, the rest discarded.
				if st := e.Stats(); st.DequeuedPackets != uint64(2*backlog) || st.LentSegments != 0 {
					t.Fatalf("after the panic: %d dequeued, %d segments lent, want %d and 0", st.DequeuedPackets, st.LentSegments, 2*backlog)
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				// Both ports take traffic again, the stopped one once re-armed
				// (two ticks: a shaped sibling is in debt for its burst).
				enqueue(4)
				e.tick(2)
				if got != [2]int{3, backlog + 4} {
					t.Fatalf("deliveries %v before the re-arm, want [3 %d]", got, backlog+4)
				}
				if err := serveAs(e.Engine, 0, view, func(Dequeued) error { got[0]++; return nil }); err != nil {
					t.Fatalf("re-arm after the panic: %v", err)
				}
				e.settle()
				if got != [2]int{7, backlog + 4} {
					t.Fatalf("deliveries %v after the re-arm, want [7 %d]", got, backlog+4)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if n := e.LentSegments(); n != 0 || e.FreeSegments() != 512 {
					t.Fatalf("%d segments lent, %d free of 512 after the drain", n, e.FreeSegments())
				}
			})
		}
	}
}

// TestUnshapedPortRecordsNoJitter: the jitter meter prices shaper
// pacing; an unshaped port's burst-mode departures must not feed it.
func TestUnshapedPortRecordsNoJitter(t *testing.T) {
	h := runEngine(t, Config{Shards: 1, NumFlows: 8, NumSegments: 512}, false,
		script{}.do(cServe, 0).rep(32, cEnqueue, 1, bytesArg(256)).do(cClock, 3))
	if pst := h.e.PortStats()[0]; pst.TransmittedPackets != 32 || pst.GapSamples != 0 || pst.MeanGapNs != 0 || pst.P99GapNs != 0 {
		t.Fatalf("unshaped port recorded jitter %+v, want none", pst)
	}
}

// TestPauseHoldsBacklogResumeReleases: a paused port holds its backlog
// through 30 ticks and transmits all of it on the instant it resumes.
func TestPauseHoldsBacklogResumeReleases(t *testing.T) {
	s := script{}.do(cServe, 0).do(cPause, 0)
	for f := range 8 {
		s = s.do(cEnqueue, f, segsArg(1))
	}
	h := runEngine(t, Config{Shards: 2, NumFlows: 16, NumSegments: 512}, false,
		s.do(cClock, 29).do(cPause, 1).do(cServe, 0))
	if len(h.departed) != 8 || h.departed[0].tick != 30 {
		t.Fatalf("departures %v, want all 8 on tick 30", h.departed)
	}
}

// TestSetFlowPortMovesBacklog: a backlogged flow re-homed onto a served port
// is transmitted there; nothing moves while it sits on an unserved one.
func TestSetFlowPortMovesBacklog(t *testing.T) {
	h := runEngine(t, Config{Shards: 2, NumFlows: 16, NumSegments: 512, NumPorts: 2}, false,
		script{}.rep(4, cEnqueue, 5, segsArg(1)).do(cRead, 5).do(cServe, 1).do(cRead, 5).
			do(cRehome, 5, 1<<2).do(cServe, 1).do(cRead, 5))
	if n := h.m.ports[1].txPackets; n != 4 {
		t.Fatalf("port 1 transmitted %d of the 4 re-homed packets", n)
	}
}

func TestServeErrorsAndSinkStop(t *testing.T) {
	e, err := New(Config{Shards: 1, NumFlows: 8, NumSegments: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ServeViews(3, SinkVFunc(func(int, Dequeued) error { return nil })); err == nil {
		t.Error("out-of-range port accepted")
	}
	if err := e.ServeViews(0, nil); err == nil {
		t.Error("nil sink accepted")
	}
	if err := e.SetFlowPort(999, 0); !errors.Is(err, ErrUnknownFlow) {
		t.Errorf("SetFlowPort(999) err = %v, want ErrUnknownFlow", err)
	}
	if err := e.SetFlowPort(0, 7); err == nil {
		t.Error("out-of-range target port accepted")
	}
	if err := e.SetPortRate(0, policy.ShaperConfig{RateBytesPerSec: -1}); err == nil {
		t.Error("invalid shaper config accepted")
	}
	// A sink error stops the worker mid-burst: the packets the sink took
	// before it failed are transmitted, the erroring packet belongs to the
	// sink, the rest of the picked batch is released (not transmitted), and
	// the port can be served again to finish the job.
	for i := 0; i < 10; i++ {
		if _, err := e.EnqueuePacket(uint32(1+i%4), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	var taken atomic.Int32
	failing := SinkVFunc(func(_ int, d Dequeued) error {
		if taken.Add(1) <= 3 {
			return nil
		}
		return errors.New("link down")
	})
	if err := e.ServeViews(0, failing); err != nil {
		t.Fatal(err)
	}
	waitServed(t, e, "the sink error to stop the port", nil, func() bool { return taken.Load() > 3 && !e.ports[0].serving.Load() })
	// The burst's counters settle before Serving reads false, and count the
	// partial burst: exactly the three packets the sink accepted.
	if pst := e.PortStats()[0]; pst.TransmittedPackets != 3 || pst.TransmittedBytes != 3*8 {
		t.Fatalf("failing sink counted %d transmissions of %d bytes, want the 3 of 24 it accepted", pst.TransmittedPackets, pst.TransmittedBytes)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-burst sink failure: %v", err)
	}
	sink2 := newCountingSink(e)
	if err := e.ServeViews(0, sink2); err != nil {
		t.Fatalf("re-Serve after sink stop: %v", err)
	}
	waitServed(t, e, "the remaining backlog", nil, func() bool {
		return e.Stats().QueuedSegments == 0
	})
	if err := e.ServeViews(0, SinkVFunc(func(int, Dequeued) error { return nil })); err == nil {
		t.Error("double Serve accepted")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.ServeViews(0, SinkVFunc(func(int, Dequeued) error { return nil })); !errors.Is(err, ErrClosed) {
		t.Errorf("Serve after Close err = %v, want ErrClosed", err)
	}
}

// TestPullAPIDrainsAllPorts: the pull path serves every port's flows,
// rotating.
func TestPullAPIDrainsAllPorts(t *testing.T) {
	s := script{}
	for f := range 32 {
		s = s.do(cRehome, f, f%3<<2).do(cEnqueue, f, segsArg(1))
	}
	runEngine(t, Config{Shards: 2, NumFlows: 32, NumSegments: 512, NumPorts: 3}, false, s.rep(5, cNextBatch, 7<<1))
}

// TestPortsConcurrentChurn runs producers, four served ports, runtime
// reconfiguration (pause/resume, reshape, flow re-homing) and both
// datapaths under the race detector, then closes and checks conservation:
// every packet that entered either left through a port or is resident.
func TestPortsConcurrentChurn(t *testing.T) {
	for _, datapath := range []string{"sync", "ring"} {
		t.Run(datapath, func(t *testing.T) {
			const ports = 4
			const flows = 128
			e, err := New(Config{
				Shards: 4, NumFlows: flows, NumSegments: 2048,
				NumPorts: ports,
				PortRate: policy.ShaperConfig{RateBytesPerSec: 1 << 28, BurstBytes: 1 << 16},
				Egress:   policy.EgressConfig{Kind: policy.EgressDRR, QuantumBytes: 256},
			})
			if err != nil {
				t.Fatal(err)
			}
			for f := uint32(0); f < flows; f++ {
				if err := e.SetFlowPort(f, int(f)%ports); err != nil {
					t.Fatal(err)
				}
			}
			if datapath == "ring" {
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
			}
			sinks := make([]*countingSink, ports)
			for p := 0; p < ports; p++ {
				sinks[p] = newCountingSink(e)
				if err := e.ServeViews(p, sinks[p]); err != nil {
					t.Fatal(err)
				}
			}
			const producers = 3
			const perProducer = 4000
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					pkt := make([]byte, 2*queue.SegmentBytes)
					for i := 0; i < perProducer; i++ {
						f := uint32(p*37+i*11) % flows
						_, err := e.EnqueuePacket(f, pkt)
						if err != nil && !errors.Is(err, queue.ErrNoFreeSegments) {
							t.Errorf("producer: %v", err)
							return
						}
					}
				}(p)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					p := i % ports
					switch i % 5 {
					case 0:
						_ = e.Pause(p)
					case 1:
						_ = e.Resume(p)
					case 2:
						_ = e.SetPortRate(p, policy.ShaperConfig{RateBytesPerSec: 1 << 30})
					case 3:
						_ = e.SetPortRate(p, policy.ShaperConfig{})
					default:
						f := uint32(i*3) % flows
						_ = e.SetFlowPort(f, (int(f)+1)%ports)
					}
					time.Sleep(100 * time.Microsecond)
				}
				// Leave everything running and unpaused for the drain.
				for p := 0; p < ports; p++ {
					_ = e.Resume(p)
					_ = e.SetPortRate(p, policy.ShaperConfig{})
				}
			}()
			wg.Wait()
			if datapath == "ring" {
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			waitServed(t, e, "the ports to drain the backlog", nil, func() bool {
				return e.Stats().QueuedSegments == 0
			})
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			delivered := uint64(0)
			for _, s := range sinks {
				delivered += uint64(s.count())
			}
			if delivered != st.DequeuedPackets || delivered != st.TransmittedPackets {
				t.Fatalf("sinks saw %d packets, engine dequeued %d, transmitted %d",
					delivered, st.DequeuedPackets, st.TransmittedPackets)
			}
			if st.EnqueuedSegments != st.DequeuedSegments {
				t.Fatalf("conservation: enq %d segments != deq %d after full drain",
					st.EnqueuedSegments, st.DequeuedSegments)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPacerSerializesEverySink: one pacer serves every port, whatever the
// shard count, so no two SendView calls ever overlap — on one port or
// across ports, shaped or not. Sixteen ports over eight shards share one
// sink that holds each packet briefly; with a pacer per shard, ports on
// different pacers would be in it at once.
func TestPacerSerializesEverySink(t *testing.T) {
	for _, rate := range []int64{0, 8 << 10} {
		t.Run(fmt.Sprintf("rate=%d", rate), func(t *testing.T) {
			const shards, ports, flows, perPort = 8, 16, 64, 16
			cfg := Config{Shards: shards, NumFlows: flows, NumSegments: 4096, NumPorts: ports}
			if rate > 0 {
				// A one-packet bucket earning 8 bytes a tick: a port's first
				// round sends two packets into 128 bytes of debt and parks for
				// about 16 ticks, however slow the sink.
				cfg.PortRate = policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: 128}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for f := uint32(0); f < flows; f++ {
				if err := e.SetFlowPort(f, int(f%ports)); err != nil {
					t.Fatal(err)
				}
			}
			var inSink, peak atomic.Int32
			var sent atomic.Int64
			sink := SinkVFunc(func(int, Dequeued) error {
				n := inSink.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(20 * time.Microsecond)
				inSink.Add(-1)
				sent.Add(1)
				return nil
			})
			for p := 0; p < ports; p++ {
				if err := e.ServeViews(p, sink); err != nil {
					t.Fatal(err)
				}
			}
			pkt := make([]byte, 128)
			for i := uint32(0); i < ports*perPort; i++ {
				if _, err := e.EnqueuePacket(i%flows, pkt); err != nil {
					t.Fatal(err)
				}
			}
			waitServed(t, e, "every packet to reach the sink", nil, func() bool { return sent.Load() == ports*perPort })
			if p := peak.Load(); p != 1 {
				t.Fatalf("%d SendView calls were in the sink at once, want 1: more than one goroutine serves ports", p)
			}
			if rate > 0 && e.Stats().Throttled == 0 {
				t.Fatal("no port parked on the wheel: the shaped arm never paced")
			}
		})
	}
}
