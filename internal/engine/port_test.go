package engine

// Tests of the port-level transmit subsystem: flow→port mapping,
// push-mode delivery through ServeViews, token-bucket pacing, pause/resume
// flow control, and the interplay with both datapaths and Close.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
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

func TestPortConfigValidation(t *testing.T) {
	base := Config{NumSegments: 64}
	bad := []Config{
		{NumSegments: 64, NumPorts: -1},
		{NumSegments: 64, NumPorts: MaxPorts + 1},
		{NumSegments: 64, PortRate: policy.ShaperConfig{RateBytesPerSec: -5}},
		{NumSegments: 64, PortRate: policy.ShaperConfig{BurstBytes: 100}}, // burst without rate
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	e, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Config().NumPorts; n != 1 {
		t.Fatalf("default NumPorts = %d, want 1", n)
	}
}

func TestServeDeliversBacklogAndLiveTraffic(t *testing.T) {
	e, err := New(Config{Shards: 4, NumFlows: 64, NumSegments: 2048})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 3*queue.SegmentBytes)
	// Backlog before the worker exists.
	for f := uint32(0); f < 16; f++ {
		if _, err := e.EnqueuePacket(f, pkt); err != nil {
			t.Fatal(err)
		}
	}
	sink := newCountingSink(e)
	if err := e.ServeViews(0, sink); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "backlog delivery", func() bool { return sink.count() == 16 })
	// Live traffic must wake the parked worker.
	for f := uint32(16); f < 32; f++ {
		if _, err := e.EnqueuePacket(f, pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "live delivery", func() bool { return sink.count() == 32 })
	st := e.Stats()
	if st.TransmittedPackets != 32 || st.TransmittedPackets != st.DequeuedPackets {
		t.Fatalf("transmitted %d / dequeued %d, want 32/32", st.TransmittedPackets, st.DequeuedPackets)
	}
	if st.TransmittedBytes != 32*uint64(len(pkt)) {
		t.Fatalf("transmitted %d bytes, want %d", st.TransmittedBytes, 32*len(pkt))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
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
			for p, n := range h.transmitted {
				if n != flows/ports*8 {
					t.Errorf("port %d transmitted %d packets, want %d", p, n, flows/ports*8)
				}
			}
		})
	}
}

// shapedCredit is the bytes a port shaped to rate B/s with a burst-byte
// bucket has been granted by the time the pacer has served engine tick k:
// the initial bucket plus the rate's earnings through the end of the tick
// being served (the pacer transmits a tick's worth per wake). A backlogged
// port has sent at least this much and less than a packet more — the
// charge-after-send overdraw — at every tick. The bucket refills in whole
// bytes, so up to a byte per elapsed tick may be missing.
func shapedCredit(rate, burst int64, k int) (lo, hi int64) {
	hi = burst + rate*int64(k+1)*pacerTick/second
	return hi - int64(k), hi
}

// TestShapedPortPacesDelivery steps a shaped port through its whole
// schedule: every tick's departures are the shaper's, to the byte.
func TestShapedPortPacesDelivery(t *testing.T) {
	const rate, burst = 1 << 20, 1024 // 1 MiB/s, 1 KiB burst
	const pktBytes, packets = 1024, 60
	e := newStepped(t, Config{
		Shards: 1, NumFlows: 8, NumSegments: 4096,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst},
	})
	pkt := make([]byte, pktBytes)
	for i := 0; i < packets; i++ {
		if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
			t.Fatal(err)
		}
	}
	sink := newCountingSink(e.Engine)
	if err := e.ServeViews(0, sink); err != nil {
		t.Fatal(err)
	}
	// The 60th packet leaves on the first tick whose credit exceeds the 59
	// before it: 1024 + 1048·(k+1) > 59·1024 ⇔ k = 56.
	const lastTick = 56
	for e.settle(); sink.count() < packets; e.tick(1) {
		if e.nowTick() > lastTick {
			t.Fatalf("%d of %d packets sent by tick %d, schedule ends at tick %d", sink.count(), packets, e.nowTick(), lastTick)
		}
		lo, hi := shapedCredit(rate, burst, e.nowTick())
		if sent := int64(sink.count()) * pktBytes; sent < lo || sent >= hi+pktBytes {
			t.Fatalf("tick %d: %d bytes sent, want within [%d, %d)", e.nowTick(), sent, lo, hi+pktBytes)
		}
	}
	if e.nowTick() != lastTick {
		t.Fatalf("backlog drained at tick %d, want %d", e.nowTick(), lastTick)
	}
	pst := e.PortStats()[0]
	if pst.RateBytesPerSec != rate || pst.BurstBytes != burst {
		t.Fatalf("shaper config in PortStats = %d/%d", pst.RateBytesPerSec, pst.BurstBytes)
	}
	if pst.ShaperTokens > pst.BurstBytes {
		t.Fatalf("shaper tokens %d above burst %d", pst.ShaperTokens, pst.BurstBytes)
	}
	// One park per tick served, and one gap per departure after the first:
	// the mean gap is the drain time over those, and the longest gap is one
	// tick, which the p99 may overstate by a sub-bucket.
	if pst.Throttled != lastTick+1 {
		t.Fatalf("throttled %d times, want %d", pst.Throttled, lastTick+1)
	}
	if pst.GapSamples != packets-1 || pst.MeanGapNs != lastTick*uint64(pacerTick)/(packets-1) {
		t.Fatalf("%d gaps of mean %dns, want %d of %dns", pst.GapSamples, pst.MeanGapNs, packets-1, lastTick*uint64(pacerTick)/(packets-1))
	}
	if pst.P99GapNs < uint64(pacerTick) || pst.P99GapNs >= uint64(pacerTick)*5/4 {
		t.Fatalf("p99 inter-departure gap %dns, want one tick (+25%%)", pst.P99GapNs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPacerHorizonRepark: a wait longer than the wheel is served by parking
// at the horizon and parking again. 1500-byte packets at 1 KB/s leave 1.5 s
// apart — six parks each — and still on the exact tick, through more than
// ten seconds of engine time.
func TestPacerHorizonRepark(t *testing.T) {
	const pktBytes, packets = 1500, 9
	e := newStepped(t, Config{
		Shards: 1, NumFlows: 8, NumSegments: 4096,
		PortRate: policy.ShaperConfig{RateBytesPerSec: 1000, BurstBytes: pktBytes},
	})
	pkt := make([]byte, pktBytes)
	for i := 0; i < packets; i++ {
		if _, err := e.EnqueuePacket(0, pkt); err != nil {
			t.Fatal(err)
		}
	}
	var departed []int // tick of each departure
	if err := e.ServeViews(0, SinkVFunc(func(_ int, d Dequeued) error {
		departed = append(departed, e.nowTick())
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	// The full bucket and the first tick's byte let two packets out at once;
	// each later one waits for the 1500 bytes its predecessor overdrew.
	want := []int{0, 0}
	for k := 1; len(want) < packets; k++ {
		want = append(want, 1500*k)
	}
	e.settle()
	e.tick(want[packets-1])
	if len(departed) != packets {
		t.Fatalf("%d of %d packets departed in %d ticks", len(departed), packets, e.nowTick())
	}
	for i := range want {
		if departed[i] != want[i] {
			t.Fatalf("departure ticks %v, want %v", departed, want)
		}
	}
	// Parks: one per 255-tick horizon inside each 1500-tick wait (five), plus
	// the one that lands on the due tick, per packet after the burst; then
	// the park after the last departure.
	if got, want := e.PortStats()[0].Throttled, uint64(6*(packets-2)+1); got != want {
		t.Fatalf("throttled %d times, want %d", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPacerSixteenShapedPorts is the benchmark's ports16-shaped-push on one
// pacer, stepped: 16 ports at 2 MB/s of 64-byte packets each hold their own
// schedule to within a packet at every tick, whatever their neighbours do.
func TestPacerSixteenShapedPorts(t *testing.T) {
	const ports, rate, burst, pktBytes, ticks = 16, 2_000_000, 4096, 64, 50
	e := newStepped(t, Config{
		Shards: 1, NumFlows: 64, NumSegments: 1 << 16, NumPorts: ports,
		PortRate: policy.ShaperConfig{RateBytesPerSec: rate, BurstBytes: burst},
	})
	sent := make([]int64, ports)
	pkt := make([]byte, pktBytes)
	for p := 0; p < ports; p++ {
		if err := e.SetFlowPort(uint32(p), p); err != nil {
			t.Fatal(err)
		}
		_, hi := shapedCredit(rate, burst, ticks)
		for n := int64(0); n <= hi; n += pktBytes { // backlog past the last tick's credit
			if _, err := e.EnqueuePacket(uint32(p), pkt); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ServeViews(p, SinkVFunc(func(_ int, d Dequeued) error {
			sent[p] += int64(d.Bytes)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	for e.settle(); e.nowTick() <= ticks; e.tick(1) {
		lo, hi := shapedCredit(rate, burst, e.nowTick())
		for p, n := range sent {
			if n < lo || n >= hi+pktBytes {
				t.Fatalf("tick %d: port %d sent %d bytes, want within [%d, %d)", e.nowTick(), p, n, lo, hi+pktBytes)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
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
				if pst[0].SinkPanics != 1 || pst[0].Serving || pst[0].TransmittedPackets != 2 {
					t.Fatalf("panicked port: %+v, want 1 panic, stopped after 2 transmissions", pst[0])
				}
				if pst[1].SinkPanics != 0 || !pst[1].Serving || got[1] != backlog {
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
	e, err := New(Config{Shards: 1, NumFlows: 8, NumSegments: 512})
	if err != nil {
		t.Fatal(err)
	}
	sink := newCountingSink(e)
	if err := e.ServeViews(0, sink); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 256)
	const packets = 32
	for i := 0; i < packets; i++ {
		if _, err := e.EnqueuePacket(uint32(i%4), pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "unshaped drain", func() bool { return sink.count() == packets })
	if pst := e.PortStats()[0]; pst.GapSamples != 0 || pst.MeanGapNs != 0 || pst.P99GapNs != 0 {
		t.Fatalf("unshaped port recorded jitter %+v, want none", pst)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPauseHoldsBacklogResumeReleases(t *testing.T) {
	e := newStepped(t, Config{Shards: 2, NumFlows: 16, NumSegments: 512})
	sink := newCountingSink(e.Engine)
	if err := e.ServeViews(0, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Pause(0); err != nil {
		t.Fatal(err)
	}
	if !e.PortStats()[0].Paused {
		t.Fatal("port not reported paused")
	}
	pkt := make([]byte, queue.SegmentBytes)
	for f := uint32(0); f < 8; f++ {
		if _, err := e.EnqueuePacket(f, pkt); err != nil {
			t.Fatal(err)
		}
	}
	e.tick(30)
	if n := sink.count(); n != 0 {
		t.Fatalf("paused port transmitted %d packets", n)
	}
	if st := e.Stats(); st.QueuedSegments != 8 {
		t.Fatalf("paused backlog = %d segments, want 8", st.QueuedSegments)
	}
	if err := e.Resume(0); err != nil {
		t.Fatal(err)
	}
	if e.settle(); sink.count() != 8 {
		t.Fatalf("resumed port transmitted %d of 8 packets", sink.count())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSetFlowPortMovesBacklog: a backlogged flow re-homed onto a served port
// is transmitted there; nothing moves while it sits on an unserved one.
func TestSetFlowPortMovesBacklog(t *testing.T) {
	h := runEngine(t, Config{Shards: 2, NumFlows: 16, NumSegments: 512, NumPorts: 2}, false,
		script{}.rep(4, cEnqueue, 5, segsArg(1)).do(cRead, 5).do(cServe, 1).do(cRead, 5).
			do(cRehome, 5, 1<<2).do(cServe, 1).do(cRead, 5))
	if h.transmitted[1] != 4 {
		t.Fatalf("port 1 transmitted %d of the 4 re-homed packets", h.transmitted[1])
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
	// A sink error stops the worker mid-burst: the erroring packet
	// belongs to the sink, the rest of the picked batch is released (not
	// transmitted), and the port can be served again to finish the job.
	for i := 0; i < 10; i++ {
		if _, err := e.EnqueuePacket(uint32(1+i%4), make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	var stopped atomic.Bool
	failing := SinkVFunc(func(_ int, d Dequeued) error {
		stopped.Store(true)
		return errors.New("link down")
	})
	if err := e.ServeViews(0, failing); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "sink error stop", func() bool { return stopped.Load() && !e.ports[0].serving.Load() })
	if tx := e.PortStats()[0].TransmittedPackets; tx != 0 {
		t.Fatalf("failing sink still counted %d transmissions", tx)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-burst sink failure: %v", err)
	}
	sink2 := newCountingSink(e)
	if err := e.ServeViews(0, sink2); err != nil {
		t.Fatalf("re-Serve after sink stop: %v", err)
	}
	waitUntil(t, 5*time.Second, "remaining backlog", func() bool {
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
			waitUntil(t, 30*time.Second, "ports to drain the backlog", func() bool {
				st := e.Stats()
				return st.QueuedSegments == 0
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
