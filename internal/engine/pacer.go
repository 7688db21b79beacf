package engine

// The engine's timing-wheel pacer. One goroutine serves every port, as
// the paper's memory manager feeds all its output ports through one
// transmission interface: runnable ports are served round-robin, shaped
// ports park on a timing wheel until their token bucket recovers, and
// idle ports cost nothing until the enqueue path's notify re-queues them.
// The port space is not bounded by how many timers the runtime tolerates:
// 10k shaped ports cost one timer, not 10k goroutines. The shard count
// adds no pacers either: one per shard entered the same shards from
// different cores on the same tick and cost more CPU per packet than it
// saved (EXPERIMENTS.md, "One pacer serves every port").
//
// Every port's entire service — every shard's scheduling unit — runs on
// this one goroutine, so no two SendView calls ever overlap, and a sink
// that blocks stalls every served port. The pacer enters shards the way
// the pull API does, through drainShard, always asking for views and, for
// a shaped port, for no more bytes than its tick's budget: push delivery
// has one form, and a sink that wants a contiguous buffer copies it out of
// the view itself, outside every shard lock. The pacing contract is
// FuzzEngineCommands' model (model_test.go).
//
// Wheel geometry: one slot per tick (1ms) for the next 256ms. Shaper waits
// are a few ticks at every rate the tests, bench/ and qmsim use; a deadline
// past the horizon parks at the horizon, finds its bucket still short when
// that slot expires, and parks again (each park counts in Throttled).
//
// Time comes in through step(now): the goroutine (pacerLoop) passes the
// engine clock's reading and sleeps for what step returns; a test on a
// stepped clock calls step itself, tick by tick, with no goroutine at all.
//
// Cross-thread handoff is one mutex-guarded pending list plus a
// capacity-1 wake channel: producers (notify), the control plane
// (ServeViews/Pause/Resume/SetPortRate/SetFlowPort kicks) and the pacer
// itself never contend for more than an append. Everything else —
// wheel, runnable queue, per-port bookkeeping — is goroutine-local.

import (
	"errors"
	"sync"
	"sync/atomic"

	"npqm/internal/queue"
)

// pacerTick is the wheel granularity. Shaped ports wake at tick
// boundaries and transmit a tick's worth of bytes per wake
// (charge-after-send debt carries the remainder), so the long-run rate
// converges to the configured one for any packet mix while sub-tick
// gaps never put the pacer to sleep.
const pacerTick = second / 1000

const wheelSlots = 256 // ticks; a power of two

// Pacer-local port states.
const (
	psIdle     uint8 = iota // not tracked; notify/kicks re-queue it
	psRunnable              // queued for service this round
	psWaiting               // parked on the wheel until deadline[pi]
)

// pacer is the engine's port-service goroutine plus its mailbox. The
// struct exists from New (so notify and kicks always have a target); the
// goroutine and its wheel state start lazily on the first ServeViews.
type pacer struct {
	e *Engine

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
	deadline []int64 // due tick while state == psWaiting; its low bits are the slot
	wnext    []int32 // intrusive wheel-slot list links
	wprev    []int32
	wheel    []int32 // slot heads (port index or -1)
	curTick  int64
	waiting  int // ports parked on the wheel
	runnable []int32
	nextRun  []int32
	pendBuf  []int32
	out      []Dequeued
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

// pacerLoop is the service goroutine: step, then sleep until the next
// deadline or wake.
func (e *Engine) pacerLoop(pc *pacer) {
	defer func() {
		// Every port stops reading as served once the engine shuts the
		// pacer down.
		for _, p := range e.ports {
			p.serving.Store(false)
		}
		e.portWG.Done()
	}()
	pc.init(e.clk.now())
	timer := newParkTimer()
	for {
		if d := pc.step(e.clk.now()); d != 0 {
			if !timer.park(d, pc.wake, e.portStop) {
				return
			}
			continue
		}
		select {
		case <-e.portStop:
			return
		default:
		}
	}
}

// init builds the goroutine-local state, with the wheel cursor at now.
func (pc *pacer) init(now int64) {
	n := len(pc.e.ports)
	pc.state = make([]uint8, n)
	pc.deadline = make([]int64, n)
	pc.wnext = make([]int32, n)
	pc.wprev = make([]int32, n)
	pc.wheel = make([]int32, wheelSlots)
	for i := range pc.wheel {
		pc.wheel[i] = -1
	}
	pc.curTick = now / pacerTick
}

// step is one turn of the service loop at engine time now: absorb kicks,
// advance the wheel, and serve a round of runnable ports. It returns how
// long the pacer may sleep before the next turn, in ns: 0 when a round was
// served (more may be runnable), negative when nothing waits on the wheel
// and only a kick can bring work.
func (pc *pacer) step(now int64) int64 {
	pc.absorb()
	pc.advance(now / pacerTick)
	if len(pc.runnable) == 0 {
		return pc.nextDelay()
	}
	pc.serveRound()
	return 0
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

// schedule parks port pi on the wheel until tick t, or until the horizon
// if t lies beyond it.
func (pc *pacer) schedule(pi int32, t int64) {
	if t <= pc.curTick {
		pc.makeRunnable(pi)
		return
	}
	t = min(t, pc.curTick+wheelSlots-1)
	pc.state[pi] = psWaiting
	pc.deadline[pi] = t
	head := &pc.wheel[t&(wheelSlots-1)]
	pc.wnext[pi] = *head
	pc.wprev[pi] = -1
	if *head >= 0 {
		pc.wprev[*head] = pi
	}
	*head = pi
	pc.waiting++
}

// unschedule removes a waiting port from its wheel slot.
func (pc *pacer) unschedule(pi int32) {
	next, prev := pc.wnext[pi], pc.wprev[pi]
	if prev >= 0 {
		pc.wnext[prev] = next
	} else {
		pc.wheel[pc.deadline[pi]&(wheelSlots-1)] = next
	}
	if next >= 0 {
		pc.wprev[next] = prev
	}
	pc.waiting--
}

// advance moves the wheel cursor to tick now, making due ports runnable.
func (pc *pacer) advance(now int64) {
	for pc.curTick < now {
		if pc.waiting == 0 {
			// Empty wheel: jump, so a long-idle pacer does not replay every
			// tick it slept through.
			pc.curTick = now
			return
		}
		pc.curTick++
		slot := pc.curTick & (wheelSlots - 1)
		for pi := pc.wheel[slot]; pi >= 0; pi = pc.wnext[pi] {
			pc.waiting--
			pc.makeRunnable(pi)
		}
		pc.wheel[slot] = -1
	}
}

// nextDelay returns how long the pacer may sleep before the earliest
// waiting port is due, negative when no port waits on the wheel.
func (pc *pacer) nextDelay() int64 {
	if pc.waiting == 0 {
		return -1
	}
	// Every waiting port's slot is one of the wheelSlots-1 after the cursor.
	t := pc.curTick + 1
	for pc.wheel[t&(wheelSlots-1)] < 0 {
		t++
	}
	// Overshoot slightly so the firing timer lands past the tick boundary
	// instead of a hair before it.
	return max(t*pacerTick-pc.e.clk.now()+pacerTick/4, pacerTick)
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

// throttle parks port p until the tick at or after now+wait, rounding up
// so the port never wakes before its bucket recovers.
func (pc *pacer) throttle(p *port, now, wait int64) {
	p.throttled.Add(1)
	pc.schedule(int32(p.idx), max((now+wait+pacerTick-1)/pacerTick, pc.curTick+1))
}

// servePortOnce gives port pi one service round: up to a burst of
// packets (bounded by the shaper's byte budget for the coming tick),
// then decides where the port goes next — runnable, wheel, or idle.
func (pc *pacer) servePortOnce(pi int32) {
	e := pc.e
	p := e.ports[pi]
	if !p.serving.Load() || p.paused.Load() {
		// A paused port holds its backlog; Resume (or a fresh ServeViews)
		// kicks the pacer, so no state needs to be kept here.
		return
	}
	sink := p.sink.Load()
	if sink == nil {
		return
	}
	now := e.clk.now()
	budget, wait := p.sh.budget(now, pacerTick)
	if budget <= 0 {
		pc.throttle(p, now, wait)
		return
	}
	shaped := budget < unshapedBudget
	// One pool transaction per burst: the engine's references to served
	// views are dropped per packet as SendView returns, but the chains ride
	// the accumulator back to the store in bulk.
	var rel queue.ViewReleaser
	defer rel.Flush()
	// Each pass asks the shards for the rest of the burst at once — the
	// packets and the bytes still allowed — so a tick's burst costs one
	// critical section per shard visited, not one per packet, and overdraws
	// the bucket by at most the packet that crossed the budget (the
	// charge-after-send debt that keeps the long-run rate exact).
	sent, pkts := int64(0), 0
	var err error
	parked := false
	for scanned := false; err == nil && pkts < unshapedBatch && sent < budget; scanned = true {
		if scanned {
			// The last pass came back short of both limits: it visited every
			// shard and left nothing servable. Declare intent to park, then
			// scan once more. The scan enters every shard's critical
			// section, so a producer whose setActive preceded our scan is
			// seen by it, and one whose setActive follows our scan observes
			// idle=true (the store below happens-before our lock
			// acquisitions) and re-queues us via notify.
			p.idle.Store(true)
		}
		pc.out = e.dequeuePort(p, pc.out[:0], unshapedBatch-pkts, budget-sent)
		if scanned {
			if len(pc.out) == 0 {
				parked = true
				break // notify will bring the port back
			}
			p.idle.Store(false)
		}
		accepted := int64(0)
		for i := range pc.out {
			d := pc.out[i]
			pc.out[i] = Dequeued{}
			if err == nil {
				err = p.send(*sink, d)
			}
			// Drop the engine's reference to the view whether the sink
			// succeeded or not — an erroring sink that kept the view
			// retained it first. Once the link has died mid-burst (a
			// panicking sink is a dead link too) that is all that happens to
			// the rest of the batch: already dequeued, it is released so
			// lent segments are not leaked, counts as dequeued but not
			// transmitted, like frames lost on a failing link, and is not
			// charged to the bucket.
			rel.Add(d.View)
			if err == nil { // counted here, settled after the burst
				accepted += int64(d.Bytes)
				pkts++
			}
		}
		if shaped {
			// Charged per batch, and before the budget is read again below:
			// a later charge would let the port run once more on credit it
			// has spent.
			p.sh.charge(accepted)
		}
		sent += accepted
	}
	// The burst settles once: one add per transmit counter, and for a shaped
	// port one clock read, after the last SendView, that stamps every
	// departure of the burst. The counters are settled before Serving reads
	// false, so a caller that saw the port stop sees what it sent.
	if pkts > 0 {
		p.txPackets.Add(uint64(pkts))
		p.txBytes.Add(uint64(sent))
		if shaped {
			now = e.clk.now()
			p.noteDepartures(now, pkts)
		}
	}
	switch {
	case err != nil:
		p.serving.Store(false) // ServeViews re-arms the port
		return
	case parked:
		// Idle spells are not pacing jitter: the next departure starts a
		// fresh gap sequence.
		p.txLastNs.Store(noDeparture)
		return
	}
	if shaped {
		if _, wait := p.sh.budget(now, pacerTick); wait > 0 {
			pc.throttle(p, now, wait)
			return
		}
	}
	// The burst filled (or the bucket still has credit): more backlog is
	// likely — stay runnable and let the next short pass park the port.
	pc.makeRunnable(pi)
}

var errSinkPanic = errors.New("engine: sink panicked")

// send hands d to the port's sink. A panic in there is the sink's failure,
// not the engine's: it is counted and comes back as the error a failing
// SendView would have returned, so the pacer and its other ports go on.
func (p *port) send(sink SinkV, d Dequeued) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.sinkPanics.Add(1)
			err = errSinkPanic
		}
	}()
	return sink.SendView(p.idx, d)
}
