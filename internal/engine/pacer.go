package engine

// The per-shard timing-wheel pacer. Served ports used to burn one
// sleeping goroutine each, which caps the port space at "as many
// timers as the runtime tolerates"; instead, every port now homes to
// exactly one pacer (port index mod shard count) and a single goroutine
// per shard services all of its ports: runnable ports are served
// round-robin, shaped ports park on a hierarchical timing wheel until
// their token bucket recovers, and idle ports cost nothing until the
// enqueue path's notify re-queues them. 10k shaped ports cost one
// timer, not 10k goroutines.
//
// A port's entire service — every shard's scheduling unit — runs on its
// home pacer, so a Sink's Transmit is never concurrent with itself (the
// contract the per-port workers provided). The pacer enters shards the
// way the pull API does, through drainShard, and like the pull API it
// carries the delivery form (copy for Serve, view for ServeViews) down
// that path as a value.
//
// Wheel geometry: level 0 holds one slot per tick (1ms) for the next
// 256ms; level 1 holds 256ms-wide slots for the next ~65s and cascades
// into level 0 as the cursor wraps; later deadlines clamp to the wheel
// horizon and re-schedule on expiry. Shaper waits are almost always a
// few ticks, so scheduling is O(1) and the cascade is rare.
//
// Cross-thread handoff is one mutex-guarded pending list plus a
// capacity-1 wake channel: producers (notify), the control plane
// (Serve/Pause/Resume/SetPortRate/SetFlowPort kicks) and the pacer
// itself never contend for more than an append. Everything else —
// wheel, runnable queue, per-port bookkeeping — is goroutine-local.

import (
	"sync"
	"sync/atomic"
	"time"

	"npqm/internal/queue"
)

// pacerTick is the wheel granularity. Shaped ports wake at tick
// boundaries and transmit a tick's worth of bytes per wake
// (charge-after-send debt carries the remainder), so the long-run rate
// converges to the configured one for any packet mix while sub-tick
// gaps never put the pacer to sleep.
const pacerTick = time.Millisecond

const (
	wheelL0Bits   = 8
	wheelL0Slots  = 1 << wheelL0Bits // 256 ticks of 1ms
	wheelL1Slots  = 256              // 256 slots of 256ms ≈ 65s
	wheelMaxTicks = wheelL0Slots * wheelL1Slots
)

// Pacer-local port states.
const (
	psIdle     uint8 = iota // not tracked; notify/kicks re-queue it
	psRunnable              // queued for service this round
	psWaiting               // parked on the wheel until deadline[pi]
)

// pacer is one shard's port-service goroutine plus its mailbox. The
// struct exists for every shard from New (so notify and kicks always
// have a target); the goroutine and its wheel state start lazily on the
// first Serve of a port homed here.
type pacer struct {
	e    *Engine
	home int

	// Cross-thread mailbox, padded away from the read-only header above
	// and the goroutine-local wheel state below: every enqueue-path notify
	// lands here, and without the pads those stores would drag the pacer's
	// private wheel lines around the machine. layout_test.go pins the
	// distances.
	_       [hotPad]byte
	mu      sync.Mutex
	pending []int32       // port indices kicked since the last absorb
	wake    chan struct{} // capacity 1; nudges a sleeping pacer

	// coalesced counts notifies that found the wake channel already full —
	// merged into the pending signal, not lost (the pacer re-absorbs the
	// mailbox after every wake, so a merged notify is still served; the
	// no-strand regression test holds it to that). Surfaces in
	// Stats.CoalescedWakes.
	coalesced atomic.Uint64

	started bool // a goroutine is running; guarded by e.lifeMu

	_ [hotPad]byte

	// Everything below is touched only by the pacer goroutine.
	state    []uint8
	deadline []int64 // due tick while state == psWaiting
	wslot    []int32 // wheel slot: [0,256) = L0, 256+ = L1
	wnext    []int32 // intrusive wheel-slot list links
	wprev    []int32
	l0       []int32 // slot heads (port index or -1)
	l1       []int32
	curTick  int64
	waiting  int // ports parked on the wheel
	runnable []int32
	nextRun  []int32
	pendBuf  []int32
	out      []Dequeued
	timer    *time.Timer
}

func newPacer(e *Engine, home int) *pacer {
	return &pacer{e: e, home: home, wake: make(chan struct{}, 1)}
}

// enqueue queues a port for the pacer's attention and wakes it. Called
// from any goroutine; this is the only cross-thread entry point.
func (pc *pacer) enqueue(pi int32) {
	pc.mu.Lock()
	pc.pending = append(pc.pending, pi)
	pc.mu.Unlock()
	select {
	case pc.wake <- struct{}{}:
	default:
		// The channel already carries a wake: this notify coalesces into
		// it. Not lost — the port is in pending, and the pacer drains the
		// whole mailbox on every wake — but counted, so a deployment can
		// see how much signaling the capacity-1 channel absorbs.
		pc.coalesced.Add(1)
	}
}

// start spawns the pacer goroutine once; caller holds e.lifeMu and has
// checked the engine is not closed.
func (pc *pacer) start() {
	if pc.started {
		return
	}
	pc.started = true
	pc.e.portWG.Add(1)
	go pc.e.pacerLoop(pc)
}

func (pc *pacer) nowTick() int64 {
	return int64(time.Since(pc.e.epoch) / pacerTick)
}

// pacerLoop is the per-shard service loop: absorb kicks, advance the
// wheel, serve a round of runnable ports, sleep until the next deadline
// or wake.
func (e *Engine) pacerLoop(pc *pacer) {
	defer func() {
		// Parity with the per-port workers' exit: ports homed here stop
		// reading as served once the engine shuts their pacer down.
		for _, p := range e.ports {
			if p.pc == pc {
				p.serving.Store(false)
			}
		}
		e.portWG.Done()
	}()
	n := len(e.ports)
	pc.state = make([]uint8, n)
	pc.deadline = make([]int64, n)
	pc.wslot = make([]int32, n)
	pc.wnext = make([]int32, n)
	pc.wprev = make([]int32, n)
	pc.l0 = make([]int32, wheelL0Slots)
	pc.l1 = make([]int32, wheelL1Slots)
	for i := range pc.l0 {
		pc.l0[i] = -1
	}
	for i := range pc.l1 {
		pc.l1[i] = -1
	}
	pc.curTick = pc.nowTick()
	pc.timer = time.NewTimer(time.Hour)
	if !pc.timer.Stop() {
		<-pc.timer.C
	}
	timerLive := false
	for {
		pc.absorb()
		pc.advance(pc.nowTick())
		if len(pc.runnable) > 0 {
			pc.serveRound()
			select {
			case <-e.portStop:
				return
			default:
			}
			continue
		}
		d, any := pc.nextDelay()
		if any {
			pc.timer.Reset(d)
			timerLive = true
		}
		select {
		case <-pc.timer.C:
			timerLive = false
		case <-pc.wake:
			if timerLive && !pc.timer.Stop() {
				<-pc.timer.C
			}
			timerLive = false
		case <-e.portStop:
			return
		}
	}
}

// absorb drains the cross-thread mailbox into the goroutine-local
// structures, de-duplicating against each port's current state.
func (pc *pacer) absorb() {
	pc.mu.Lock()
	pend := append(pc.pendBuf[:0], pc.pending...)
	pc.pending = pc.pending[:0]
	pc.mu.Unlock()
	pc.pendBuf = pend
	for _, pi := range pend {
		switch pc.state[pi] {
		case psRunnable:
			// Already queued this round.
		case psWaiting:
			// A kick outruns the wheel (rate change, resume, re-homed
			// flow): re-evaluate the port now.
			pc.unschedule(pi)
			pc.makeRunnable(pi)
		default:
			pc.makeRunnable(pi)
		}
	}
}

func (pc *pacer) makeRunnable(pi int32) {
	pc.state[pi] = psRunnable
	pc.runnable = append(pc.runnable, pi)
}

// schedule parks port pi on the wheel until tick t (clamped to the
// wheel horizon; a clamped port re-schedules when its slot expires).
func (pc *pacer) schedule(pi int32, t int64) {
	if t <= pc.curTick {
		pc.makeRunnable(pi)
		return
	}
	if t-pc.curTick >= wheelMaxTicks {
		t = pc.curTick + wheelMaxTicks - 1
	}
	pc.state[pi] = psWaiting
	pc.deadline[pi] = t
	var slot int32
	if t-pc.curTick < wheelL0Slots {
		slot = int32(t & (wheelL0Slots - 1))
	} else {
		slot = wheelL0Slots + int32((t>>wheelL0Bits)%wheelL1Slots)
	}
	pc.wslot[pi] = slot
	head := pc.slotHead(slot)
	pc.wnext[pi] = *head
	pc.wprev[pi] = -1
	if *head >= 0 {
		pc.wprev[*head] = pi
	}
	*head = pi
	pc.waiting++
}

func (pc *pacer) slotHead(slot int32) *int32 {
	if slot < wheelL0Slots {
		return &pc.l0[slot]
	}
	return &pc.l1[slot-wheelL0Slots]
}

// unschedule removes a waiting port from its wheel slot.
func (pc *pacer) unschedule(pi int32) {
	next, prev := pc.wnext[pi], pc.wprev[pi]
	if prev >= 0 {
		pc.wnext[prev] = next
	} else {
		*pc.slotHead(pc.wslot[pi]) = next
	}
	if next >= 0 {
		pc.wprev[next] = prev
	}
	pc.waiting--
}

// advance moves the wheel cursor to now, making due ports runnable and
// cascading level-1 slots into level 0 as the cursor wraps.
func (pc *pacer) advance(now int64) {
	if pc.waiting == 0 {
		// Empty wheel: jump, so a long-idle pacer does not replay every
		// tick it slept through.
		if now > pc.curTick {
			pc.curTick = now
		}
		return
	}
	for pc.curTick < now {
		pc.curTick++
		if pc.curTick&(wheelL0Slots-1) == 0 {
			pc.cascade(int32((pc.curTick >> wheelL0Bits) % wheelL1Slots))
		}
		slot := pc.curTick & (wheelL0Slots - 1)
		for pi := pc.l0[slot]; pi >= 0; {
			next := pc.wnext[pi]
			pc.waiting--
			pc.makeRunnable(pi)
			pi = next
		}
		pc.l0[slot] = -1
	}
}

// cascade re-distributes a level-1 slot's ports by their exact
// deadlines — into level 0, the runnable queue, or (for clamped
// far-future deadlines that wrapped) back into level 1.
func (pc *pacer) cascade(slot int32) {
	pi := pc.l1[slot]
	pc.l1[slot] = -1
	for pi >= 0 {
		next := pc.wnext[pi]
		pc.waiting--
		pc.schedule(pi, pc.deadline[pi])
		pi = next
	}
}

// nextDelay returns how long the pacer may sleep before the earliest
// waiting port is due; any is false when no port waits on the wheel.
func (pc *pacer) nextDelay() (time.Duration, bool) {
	if pc.waiting == 0 {
		return 0, false
	}
	best := int64(-1)
	for t := pc.curTick + 1; t < pc.curTick+wheelL0Slots; t++ {
		if pc.l0[t&(wheelL0Slots-1)] >= 0 {
			best = t
			break
		}
	}
	if best < 0 {
		// Sleep to the next non-empty level-1 slot's cascade time; the
		// wake cascades it and computes the exact remainder.
		cur := pc.curTick >> wheelL0Bits
		for j := int64(1); j <= wheelL1Slots; j++ {
			if pc.l1[(cur+j)%wheelL1Slots] >= 0 {
				best = (cur + j) << wheelL0Bits
				break
			}
		}
	}
	if best < 0 {
		// waiting > 0 guarantees a slot above; defensive fallback.
		best = pc.curTick + 1
	}
	d := time.Duration(best)*pacerTick - time.Since(pc.e.epoch)
	// Overshoot slightly so the firing timer lands past the tick
	// boundary instead of a hair before it.
	d += pacerTick / 4
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}

// serveRound serves every runnable port once, round-robin. Ports that
// want more service re-queue onto the next round's list; shaped ports
// out of budget park on the wheel; drained ports go idle.
func (pc *pacer) serveRound() {
	run := pc.runnable
	pc.runnable = pc.nextRun[:0]
	for _, pi := range run {
		pc.state[pi] = psIdle
		pc.servePortOnce(pi)
	}
	pc.nextRun = run[:0]
}

// tickAfter converts a shaper wait into an absolute due tick, rounding
// up so the port never wakes before its bucket recovers.
func (pc *pacer) tickAfter(wait time.Duration) int64 {
	t := int64((time.Since(pc.e.epoch) + wait + pacerTick - 1) / pacerTick)
	if t <= pc.curTick {
		t = pc.curTick + 1
	}
	return t
}

// servePortOnce gives port pi one service round: up to a burst of
// packets (bounded by the shaper's byte budget for the coming tick),
// then decides where the port goes next — runnable, wheel, or idle. A
// port registered through ServeViews is served views, one registered
// through Serve reassembled buffers; the loop differs only in the call
// that hands a packet to the sink.
func (pc *pacer) servePortOnce(pi int32) {
	e := pc.e
	p := e.ports[pi]
	if !p.serving.Load() || p.paused.Load() {
		// A paused port holds its backlog; Resume (or a fresh Serve)
		// kicks the pacer, so no state needs to be kept here.
		return
	}
	box := p.sink.Load()
	if box == nil {
		return
	}
	view := box.sinkV != nil
	shaped := p.sh.enabled()
	budget := int64(1) << 62
	if shaped {
		b, wait := p.sh.budget(time.Now(), pacerTick)
		if b <= 0 {
			p.throttled.Add(1)
			pc.schedule(pi, pc.tickAfter(wait))
			return
		}
		budget = b
	}
	sent := int64(0)
	pkts := 0
	// One pool transaction per burst: the engine's references to served
	// views are dropped per packet as SendView returns, but the chains ride
	// the accumulator back to the store in bulk.
	var rel queue.ViewReleaser
	defer rel.Flush()
	for pkts < unshapedBatch {
		max := unshapedBatch - pkts
		if shaped {
			// Packet-at-a-time under shaping: the byte budget is checked
			// between packets, so the bucket overdraws by at most one
			// packet (the charge-after-send debt that keeps the long-run
			// rate exact).
			max = 1
		}
		pc.out = e.dequeuePort(p, view, pc.out[:0], max)
		if len(pc.out) == 0 {
			// Nothing servable: declare intent to park, then scan once
			// more. The scan enters every shard's critical section, so a
			// producer whose setActive preceded our scan is seen by it,
			// and one whose setActive follows our scan observes
			// idle=true (the store below happens-before our lock
			// acquisitions) and re-queues us via notify.
			p.idle.Store(true)
			pc.out = e.dequeuePort(p, view, pc.out[:0], max)
			if len(pc.out) == 0 {
				// Idle spells are not pacing jitter: the next departure
				// starts a fresh gap sequence.
				p.txLastNs.Store(0)
				return // parked; notify will bring the port back
			}
			p.idle.Store(false)
		}
		for i := range pc.out {
			d := pc.out[i]
			pc.out[i] = Dequeued{}
			var err error
			if view {
				err = box.sinkV.SendView(p.idx, d)
			} else {
				err = box.sink.Transmit(d)
			}
			// Drop the engine's reference to a view whether the sink
			// succeeded or not — an erroring sink that kept the view
			// retained it first. A copy has no view, and its buffer belongs
			// to the sink either way.
			rel.Add(d.View)
			if err != nil {
				// The link died mid-burst: the rest of the batch — already
				// dequeued — is released so buffers and lent segments are
				// not leaked. Those packets count as dequeued but not
				// transmitted, like frames lost on a failing link. The port
				// stops being served (Serve re-arms it).
				e.discard(pc.out[i+1:], &rel)
				p.serving.Store(false)
				return
			}
			p.txPackets.Add(1)
			p.txBytes.Add(uint64(d.Bytes))
			if shaped {
				p.sh.charge(d.Bytes)
				p.noteDeparture(time.Now().UnixNano())
			}
			sent += int64(d.Bytes)
			pkts++
		}
		if shaped && sent >= budget {
			break
		}
	}
	if shaped {
		if _, wait := p.sh.budget(time.Now(), pacerTick); wait > 0 {
			p.throttled.Add(1)
			pc.schedule(pi, pc.tickAfter(wait))
			return
		}
	}
	// The burst filled (or the bucket still has credit): more backlog is
	// likely — stay runnable and let the next empty scan park the port.
	pc.makeRunnable(pi)
}

// discard settles packets that were dequeued for a sink that will not take
// them: buffers go back to the pool, views into rel.
func (e *Engine) discard(ds []Dequeued, rel *queue.ViewReleaser) {
	for i := range ds {
		e.ReleaseBuffer(ds[i].Data)
		rel.Add(ds[i].View)
		ds[i] = Dequeued{}
	}
}
