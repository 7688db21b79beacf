package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"npqm"
)

const (
	// asyncMaxRing bounds the commands the async producer leaves waiting
	// in the shard rings. With the 256-command batch each of the 4 workers
	// may be executing, at most 1024+window+1024 packets are in flight:
	// under 50k segments at 24 segments each, which fits in the half of the
	// pool the watermark keeps free, so no async enqueue can be refused.
	asyncMaxRing = 1024
	// asyncSlots is the async staging ring. EnqueueAsync reads the buffer
	// when the command executes, so a slot may be reused only after every
	// command posted before it has run; 8192 is well above the in-flight
	// bound.
	asyncSlots = 8192
	// stampEvery: one packet in this many carries its offer time, for the
	// closed-loop residence samples. Every paced packet is stamped.
	stampEvery = 64
	// waitSleep is what every backpressure and idle wait sleeps. Waits
	// sleep rather than spin so that CPU time prices the engine.
	waitSleep = 100 * time.Microsecond
	// drainTimeout bounds the wait for an engine to empty after a phase.
	drainTimeout = 10 * time.Second
)

// slot is one staged packet and its staging buffer.
type slot struct {
	flow, seq uint32
	size      int
	buf       []byte
	dirty     bool // holds a unique payload; restore the template before reuse
}

// runBufs is everything the harness allocates, once per process, so that
// trials allocate nothing per packet and heap_mib is the same every trial.
type runBufs struct {
	template []byte
	slots    []slot
	rtt      *samples // ns per round trip
	res      *samples // ns residence, pull consumer
	late     *samples // ns generator lateness, paced phase
	portRes  []*samples
	probe    *hostProbe

	recProd, recCons *recorder
	recSinks         []*recorder
}

func newRunBufs(w *workload, traced bool) *runBufs {
	b := &runBufs{
		template: make([]byte, w.maxSize()),
		rtt:      newSamples(1 << 21),
		res:      newSamples(1 << 18),
		late:     newSamples(1 << 19),
		probe:    newHostProbe(),
	}
	fillPayload(b.template, 0, 0)
	n := max(window, w.offerPerStep, batchMax)
	if w.ingest == ingestAsync {
		n = asyncSlots
	}
	b.slots = make([]slot, n)
	backing := make([]byte, n*w.maxSize())
	for i := range b.slots {
		b.slots[i].buf = backing[i*w.maxSize() : (i+1)*w.maxSize() : (i+1)*w.maxSize()]
		copy(b.slots[i].buf, b.template)
	}
	for p := 0; p < w.ports; p++ {
		b.portRes = append(b.portRes, newSamples(1<<15))
	}
	if traced {
		base := time.Now()
		b.recProd = newRecorder("producer", base, 1<<18)
		b.recCons = newRecorder("consumer", base, 1<<18)
		for p := 0; p < w.ports; p++ {
			b.recSinks = append(b.recSinks, newRecorder(fmt.Sprintf("sink%d", p), base, 1<<14))
		}
	}
	return b
}

// recorders lists the traced run's recorders; empty on an untraced run.
func (b *runBufs) recorders() []*recorder {
	if b.recProd == nil {
		return nil
	}
	return append([]*recorder{b.recProd, b.recCons}, b.recSinks...)
}

// setTrial labels the spans recorded from now on.
func (b *runBufs) setTrial(i int) {
	for _, r := range b.recorders() {
		r.trial = uint8(i)
	}
}

// filler copies a staged packet into a reservation's segments. Its fn is
// bound once: a closure per packet would allocate.
type filler struct {
	src []byte
	off int
	fn  func(seg []byte) bool
}

func (f *filler) fill(seg []byte) bool {
	f.off += copy(seg, f.src[f.off:])
	return true
}

// portSink is one port's ServeViews sink. The engine calls a port's sink
// from that port's home pacer goroutine only, so the fields need no lock;
// the shared delivered counters are atomic.
type portSink struct {
	t   *trial
	v   *verifier
	res *samples
	rec *recorder
	_   [64]byte // keep neighbouring sinks off one cache line
}

func (p *portSink) SendView(_ int, d npqm.DequeuedView) error {
	s0 := p.rec.begin()
	if stamp := p.v.viewPacket(d.Flow, d.Bytes, d.View); stamp != 0 {
		p.res.add(p.t.sinceStamp(stamp))
	}
	p.rec.end(spSink, s0, 1)
	p.t.deliveredBytes.Add(uint64(d.Bytes))
	p.t.delivered.Add(1)
	return nil
}

// trial is one fresh engine taken through setup, rtt, saturate (or the
// stepped loop), paced, drain and verification.
type trial struct {
	w    *workload
	b    *runBufs
	cm   *npqm.ConcurrentQueueManager
	src  *source
	v    *verifier
	sink []*portSink
	fill filler
	base time.Time

	rec, crec *recorder // nil when this trial is untraced

	slotNext int
	staged   uint64 // packets staged, for stamp sampling
	offered  uint64
	refused  uint64
	waits    uint64
	waitNs   int64

	// delivered counts are written by the consumer or the sinks and read
	// by the window snapshots and the push-mode waits.
	delivered      atomic.Uint64
	deliveredBytes atomic.Uint64
}

func (t *trial) nowTicks() uint32 { return uint32(time.Since(t.base)/stampUnit) + 1 }

// sinceStamp is the ns elapsed since a stamp was taken, clamped to uint32.
func (t *trial) sinceStamp(stamp uint32) uint32 {
	d := int64(time.Since(t.base)) - int64(stamp-1)*stampUnit
	return uint32(max(0, min(d, 1<<32-1)))
}

// newTrial builds the engine and runs the warm pass; it returns the
// set-up time.
func newTrial(w *workload, b *runBufs, seed uint64, traced bool) (*trial, time.Duration, error) {
	start := time.Now()
	t := &trial{w: w, b: b, base: start}
	t.fill.fn = t.fill.fill
	if traced {
		t.rec, t.crec = b.recProd, b.recCons
	}
	b.rtt.reset()
	b.res.reset()
	b.late.reset()
	var err error
	if t.src, err = newSource(w, seed); err != nil {
		return nil, 0, err
	}
	t.v = newVerifier(numFlows, w.allowGaps, w.stepped)
	if t.cm, err = w.build(); err != nil {
		return nil, 0, err
	}
	if w.mapFlow != nil {
		for f := uint32(0); f < numFlows; f++ {
			if err := w.mapFlow(t.cm, f); err != nil {
				return nil, 0, err
			}
		}
	}
	if w.ring {
		if err := t.cm.Start(); err != nil {
			return nil, 0, err
		}
	}
	if w.deliver == deliverPush {
		for p := 0; p < w.ports; p++ {
			b.portRes[p].reset()
			ps := &portSink{t: t, v: t.v.fork(), res: b.portRes[p]}
			if traced {
				ps.rec = b.recSinks[p]
			}
			t.sink = append(t.sink, ps)
			if err := t.cm.ServeViews(p, ps); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := t.warm(); err != nil {
		return nil, 0, err
	}
	return t, time.Since(start), nil
}

// warm puts one minimum-size packet through every flow, so that lazily
// built per-port and per-level state exists before anything is timed.
func (t *trial) warm() error {
	size := t.w.fixed
	if size == 0 {
		size = 64
	}
	segs := (size + npqm.SegmentBytes - 1) / npqm.SegmentBytes
	chunk := min(4096, t.w.pool/(2*segs))
	for f := uint32(0); f < numFlows; {
		end := min(f+uint32(chunk), numFlows)
		for ; f < end; f++ {
			s := t.nextSlot()
			s.flow, s.seq, s.size = f, t.src.seq[f], size
			t.src.seq[f]++
			t.stageSlot(s, 0)
			if err := t.offerRetry(s); err != nil {
				return fmt.Errorf("warm pass, flow %d: %w", f, err)
			}
			t.offered++
			if t.w.ingest == ingestAsync && t.offered%asyncMaxRing == 0 {
				if err := t.cm.Drain(); err != nil {
					return err
				}
			}
		}
		if err := t.drain(); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

func (t *trial) nextSlot() *slot {
	if t.slotNext >= len(t.b.slots) {
		t.slotNext = 0
	}
	s := &t.b.slots[t.slotNext]
	t.slotNext++
	return s
}

// nextWindow returns n consecutive slots (n divides the slot count).
func (t *trial) nextWindow(n int) []slot {
	if t.slotNext+n > len(t.b.slots) {
		t.slotNext = 0
	}
	win := t.b.slots[t.slotNext : t.slotNext+n]
	t.slotNext += n
	return win
}

// stage draws the next packet of the sequence into s.
func (t *trial) stage(s *slot, stamp uint32) {
	s.flow, s.seq, s.size = t.src.next()
	t.stageSlot(s, stamp)
}

func (t *trial) stageSlot(s *slot, stamp uint32) {
	if s.dirty {
		copy(s.buf[hdrBytes:], t.b.template[hdrBytes:])
		s.dirty = false
	}
	if isUnique(s.flow, s.seq) {
		fillPayload(s.buf[:s.size], hdrBytes, uniqueKey(s.flow, s.seq))
		s.dirty = true
	}
	putHeader(s.buf, header{flow: s.flow, seq: s.seq, size: s.size, stamp: stamp})
	t.staged++
}

// sampleStamp stamps one staged packet in stampEvery with the current time.
func (t *trial) sampleStamp() uint32 {
	if t.staged%stampEvery != 0 {
		return 0
	}
	return t.nowTicks()
}

// offer makes the workload's ingest call for one staged packet.
func (t *trial) offer(s *slot) error {
	switch t.w.ingest {
	case ingestCopy:
		_, err := t.cm.EnqueuePacket(s.flow, s.buf[:s.size])
		return err
	case ingestAsync:
		return t.cm.EnqueueAsync(s.flow, s.buf[:s.size])
	}
	r, err := t.cm.ReservePacket(s.flow, s.size)
	if err != nil {
		return err
	}
	t.fill.src, t.fill.off = s.buf[:s.size], 0
	r.Range(t.fill.fn)
	return r.Commit()
}

// offerRetry offers s until the pool has room. It keeps retrying even when
// the phase is over: the packet already has its sequence number, and the
// delivery side keeps draining until the producer is done.
func (t *trial) offerRetry(s *slot) error {
	for {
		err := t.offer(s)
		if err == nil || !errors.Is(err, npqm.ErrNoFreeSegments) {
			return err
		}
		t.wait()
	}
}

// wait is one backpressure sleep on the producer side.
func (t *trial) wait() {
	s0 := time.Now()
	time.Sleep(waitSleep)
	d := time.Since(s0)
	t.waits++
	t.waitNs += int64(d)
	if t.rec != nil {
		end := int64(time.Since(t.rec.base))
		t.rec.add(spWait, end-int64(d), end, 0)
	}
}

func (t *trial) backpressured() bool {
	if t.w.pool-t.cm.FreeSegments() > t.w.maxResident {
		return true
	}
	return t.w.ingest == ingestAsync && t.cm.RingOccupancy() > asyncMaxRing
}

// pull makes one delivery call for up to max packets, verifies what it
// returns and releases it. It returns the number of packets delivered.
func (t *trial) pull(max int) int {
	rec := t.crec
	var n int
	var bytes uint64
	if t.w.deliver == deliverView {
		s0 := rec.begin()
		out := t.cm.DequeueNextViewBatch(max)
		n = len(out)
		rec.end(spDequeue, s0, n)
		if n == 0 {
			return 0
		}
		s1 := rec.begin()
		for i := range out {
			if stamp := t.v.viewPacket(out[i].Flow, out[i].Bytes, out[i].View); stamp != 0 {
				t.b.res.add(t.sinceStamp(stamp))
			}
			bytes += uint64(out[i].Bytes)
		}
		rec.end(spVerify, s1, n)
		s2 := rec.begin()
		t.cm.ReleaseViews(out)
		rec.end(spRelease, s2, n)
	} else {
		s0 := rec.begin()
		out := t.cm.DequeueNextBatch(max)
		n = len(out)
		rec.end(spDequeue, s0, n)
		if n == 0 {
			return 0
		}
		s1 := rec.begin()
		for i := range out {
			if stamp := t.v.copyPacket(out[i].Flow, out[i].Data, out[i].Bytes); stamp != 0 {
				t.b.res.add(t.sinceStamp(stamp))
			}
			bytes += uint64(out[i].Bytes)
		}
		rec.end(spVerify, s1, n)
		s2 := rec.begin()
		for i := range out {
			t.cm.ReleaseBuffer(out[i].Data)
		}
		rec.end(spRelease, s2, n)
	}
	if rec != nil {
		rec.batch++
	}
	t.deliveredBytes.Add(bytes)
	t.delivered.Add(uint64(n))
	return n
}

// drain empties the engine through the workload's delivery side: every
// offered packet not refused must come out (or be pushed out).
func (t *trial) drain() error {
	if t.w.ingest == ingestAsync {
		if err := t.cm.Drain(); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(drainTimeout)
	if t.w.deliver == deliverPush {
		for t.delivered.Load()+t.refused < t.offered {
			if time.Now().After(deadline) {
				return fmt.Errorf("drain: %d of %d packets reached the sinks", t.delivered.Load(), t.offered)
			}
			time.Sleep(waitSleep)
		}
		return nil
	}
	for {
		if t.pull(batchMax) > 0 {
			continue
		}
		if t.cm.Stats().QueuedSegments == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("drain: engine holds segments it does not deliver")
		}
	}
}

// rttPhase keeps one packet in flight: offer, take delivery, time the
// round trip. It stops after d, or after count round trips when count > 0
// (the stepped workload, whose packet sequence must not depend on time).
//
// It is never traced: three spans per round trip would be a third of the
// round trip. Every probeEvery it times the host probe, between two round
// trips, and it returns the host's pace over the phase.
func (t *trial) rttPhase(d time.Duration, count int) float64 {
	crec := t.crec
	t.crec = nil
	defer func() { t.crec = crec }()
	rtt, probe := t.b.rtt, t.b.probe
	probe.reset()
	s := &t.b.slots[0]
	start := time.Now()
	last, probed := start, start
	for i := 0; !rtt.full(); i++ {
		if count > 0 && i == count {
			break
		}
		t.stage(s, 0)
		if err := t.offerRetry(s); err != nil {
			t.refused++
		}
		t.offered++
		if t.w.deliver == deliverPush {
			for t.delivered.Load()+t.refused < t.offered {
				runtime.Gosched()
			}
		} else {
			for t.pull(1) == 0 && t.delivered.Load()+t.refused < t.offered {
				runtime.Gosched()
			}
		}
		now := time.Now()
		rtt.add(uint32(min(now.Sub(last), 1<<32-1)))
		last = now
		if count == 0 && now.Sub(start) >= d {
			break
		}
		if now.Sub(probed) >= probeEvery {
			probe.run()
			probed = time.Now()
			last = probed
		}
	}
	return probe.pace()
}

// windowStats is what one measurement window saw.
type windowStats struct {
	seconds   float64
	delivered uint64
	bytes     uint64
	cpu       time.Duration
	mallocs   uint64
	stats     npqm.EngineStats
	pace      float64 // the host's pace over the window, see hostProbe

	// offered and refused inside the window; the stepped phase only, where
	// loss is part of the workload.
	offered, refused uint64

	peaks // sampled on traced trials only
}

// peaks are the highest occupancies a traced trial sampled in its window.
type peaks struct {
	ring, resident, lent int
}

// sample reads the engine's occupancy gauges once.
func (p *peaks) sample(t *trial) {
	p.ring = max(p.ring, t.cm.RingOccupancy())
	p.resident = max(p.resident, t.w.pool-t.cm.FreeSegments())
	p.lent = max(p.lent, t.cm.LentSegments())
}

type snapshot struct {
	at        time.Time
	delivered uint64
	bytes     uint64
	cpu       time.Duration
	mallocs   uint64
	stats     npqm.EngineStats
}

func (t *trial) snap(withStats bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		delivered: t.delivered.Load(), bytes: t.deliveredBytes.Load(),
		cpu: cpuTime(), mallocs: ms.Mallocs,
	}
	if withStats {
		s.stats = t.cm.Stats()
	}
	s.at = time.Now()
	return s
}

func (a snapshot) until(b snapshot) windowStats {
	w := windowStats{
		seconds:   b.at.Sub(a.at).Seconds(),
		delivered: b.delivered - a.delivered,
		bytes:     b.bytes - a.bytes,
		cpu:       b.cpu - a.cpu,
		mallocs:   b.mallocs - a.mallocs,
	}
	w.stats = b.stats
	w.stats.CopiedBytes -= a.stats.CopiedBytes
	w.stats.CoalescedWakes -= a.stats.CoalescedWakes
	w.stats.Throttled -= a.stats.Throttled
	w.stats.PushedOutPackets -= a.stats.PushedOutPackets
	w.stats.TransmittedBytes -= a.stats.TransmittedBytes
	return w
}

// observe sleeps through a window of length d. A traced trial samples
// ring, pool and lent occupancy every ms; an untraced one times the host
// probe every probeEvery.
func (t *trial) observe(d time.Duration) (p peaks) {
	if t.rec == nil {
		for end := time.Now().Add(d); time.Now().Before(end); {
			time.Sleep(probeEvery)
			t.b.probe.run()
		}
		return p
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		p.sample(t)
	}
	return p
}

// saturatePhase is the closed loop: one producer offers as fast as the
// engine accepts, one consumer (or the engine's pacers) delivers, and the
// window counts only what is delivered inside it.
func (t *trial) saturatePhase(d time.Duration) (windowStats, error) {
	var stop, prodDone atomic.Bool
	var prod, cons sync.WaitGroup
	for _, ps := range t.sink {
		ps.rec.resetTotals() // the pacers are idle: the engine is drained
	}
	prod.Add(1)
	go func() {
		defer prod.Done()
		t.produce(&stop)
	}()
	var drainErr error
	if t.w.deliver != deliverPush {
		cons.Add(1)
		go func() {
			defer cons.Done()
			drainErr = t.consume(&prodDone)
		}()
	}
	ramp := min(d/10, 100*time.Millisecond)
	time.Sleep(ramp)
	t.b.probe.reset()
	a := t.snap(t.rec != nil)
	seen := t.observe(d - ramp)
	b := t.snap(t.rec != nil)
	stop.Store(true)
	prod.Wait()
	prodDone.Store(true)
	cons.Wait()
	if t.w.deliver == deliverPush {
		drainErr = t.drain()
	}
	w := a.until(b)
	w.peaks = seen
	w.pace = t.b.probe.pace()
	return w, drainErr
}

func (t *trial) produce(stop *atomic.Bool) {
	rec := t.rec
	rec.resetTotals()
	idx := rec.openPhase(phaseSaturate)
	defer rec.closePhase(idx)
	for !stop.Load() {
		for t.backpressured() {
			if stop.Load() {
				return
			}
			t.wait()
		}
		win := t.nextWindow(window)
		s0 := rec.begin()
		for i := range win {
			t.stage(&win[i], t.sampleStamp())
		}
		rec.end(spGen, s0, len(win))
		s1, w1 := rec.begin(), t.waitNs
		for i := range win {
			if err := t.offerRetry(&win[i]); err != nil {
				t.refused++
			}
		}
		if rec != nil {
			// A retry's sleep is not the engine's time.
			rec.add(spEnqueue, s1, int64(time.Since(rec.base))-(t.waitNs-w1), len(win))
			rec.batch++
		}
		t.offered += uint64(len(win))
	}
}

// consume pulls until the producer is done and the engine is empty. Idle
// waits sleep.
func (t *trial) consume(prodDone *atomic.Bool) error {
	rec := t.crec
	rec.resetTotals()
	idx := rec.openPhase(phaseSaturate)
	defer rec.closePhase(idx)
	for {
		if t.pull(batchMax) > 0 {
			continue
		}
		if prodDone.Load() {
			return t.drain()
		}
		s0 := rec.begin()
		time.Sleep(waitSleep)
		rec.end(spWait, s0, 0)
	}
}

// steppedPhase is the time-stepped overload loop: one goroutine offers
// offerPerStep packets, then serves servePerStep, for a fixed number of
// steps, so that loss and delivery order depend on the seed alone and wall
// time prices the admission and push-out path. The host probe runs between
// steps, about every probeEvery, and its time is taken out of the window.
func (t *trial) steppedPhase(steps int) windowStats {
	rec := t.rec
	rec.resetTotals()
	t.crec.resetTotals()
	idx := rec.openPhase(phaseSaturate)
	defer rec.closePhase(idx)
	probe := t.b.probe
	probe.reset()
	a := t.snap(true)
	offered0, refused0 := t.offered, t.refused
	var seen peaks
	for s := 0; s < steps; s++ {
		if s%64 == 63 {
			probe.run()
		}
		if rec != nil && s%128 == 127 {
			seen.sample(t)
		}
		win := t.nextWindow(t.w.offerPerStep)
		s0 := rec.begin()
		for i := range win {
			t.stage(&win[i], t.sampleStamp())
		}
		rec.end(spGen, s0, len(win))
		s1 := rec.begin()
		for i := range win {
			if err := t.offer(&win[i]); err != nil {
				t.refused++
			}
		}
		rec.end(spEnqueue, s1, len(win))
		if rec != nil {
			rec.batch++
		}
		t.offered += uint64(len(win))
		t.pull(t.w.servePerStep)
	}
	w := a.until(t.snap(true))
	w.offered, w.refused = t.offered-offered0, t.refused-refused0
	w.peaks = seen
	w.pace = probe.pace()
	w.seconds -= probe.ns.Seconds()
	w.cpu -= probe.ns
	return w
}

// pacedPhase is the open loop: packet i is due at start + i/rate whether
// or not the engine keeps up, and carries that due time, so residence
// counts the wait a stall imposes on the packets behind it. The generator
// spins (yielding) between due times: a sleep here is 1 ms on Linux, two
// hundred packets late. How late it still ran is recorded per packet.
func (t *trial) pacedPhase(d time.Duration) error {
	rec := t.rec
	idx := rec.openPhase(phasePaced)
	defer rec.closePhase(idx)
	for _, r := range t.b.portRes {
		r.reset()
	}
	period := int64(time.Second) / int64(t.w.pacedPPS)
	n := int(int64(d) / period)
	start := int64(time.Since(t.base))
	for i := 0; i < n; {
		now := int64(time.Since(t.base))
		if now < start+int64(i)*period {
			runtime.Gosched()
			continue
		}
		for k := 0; i < n && k < 8; k, i = k+1, i+1 {
			due := start + int64(i)*period
			if due > now {
				break
			}
			s := t.nextSlot()
			t.stage(s, uint32(due/stampUnit)+1)
			t.b.late.add(uint32(min(now-due, 1<<32-1)))
			if err := t.offerRetry(s); err != nil {
				t.refused++
			}
			t.offered++
		}
	}
	return t.drain()
}

// finish closes the engine and runs the whole-trial checks.
func (t *trial) finish(drainErr error) (npqm.EngineStats, error) {
	if drainErr == nil {
		drainErr = t.drain()
	}
	closeErr := t.cm.Close()
	st := t.cm.Stats()
	for _, ps := range t.sink {
		t.v.merge(ps.v)
	}
	refused := t.refused
	if t.w.ingest == ingestAsync {
		// EnqueueAsync reports no outcome to the caller; the counters are
		// the only place a refusal shows.
		refused += st.Rejected + st.DroppedPackets
	}
	es := endState{
		invariants: t.cm.CheckInvariants(),
		lent:       t.cm.LentSegments(),
		free:       st.FreeSegments,
		pool:       t.w.pool,
		offered:    t.offered,
		refused:    refused,
		pushedOut:  st.PushedOutPackets,
		resident:   st.EnqueuedPackets - st.DequeuedPackets - st.PushedOutPackets,
	}
	if drainErr != nil && es.invariants == nil {
		es.invariants = drainErr
	}
	t.v.finish(es)
	return st, errors.Join(drainErr, closeErr, es.invariants)
}
