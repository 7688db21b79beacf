package engine

// Entering a shard, and the command ring that feeds it. The paper's MMS has
// one serialization point: processing elements post commands into FIFOs and
// one manager executes them against one pointer memory. The shard mutex is
// that point here, in every lifecycle state — whoever holds it is the
// manager for the duration — and the ring (internal/ring, one per shard,
// created by Start) carries the one thing a mutex cannot express: an enqueue
// whose poster does not wait. EnqueueAsync publishes {flow, data} with one
// CAS and returns; the next goroutine to enter the shard, whoever it is,
// executes what was posted before doing its own work (drain). A full ring
// applies backpressure instead of growing without bound.
//
// Drain-on-entry is what keeps program order: a goroutine's blocking call
// finds its own earlier posts in the ring when it takes the lock, and runs
// them first. The per-shard worker exists only so that posts make progress
// when nobody else enters the shard.
//
// A posted enqueue runs the same arrival routine as a blocking one (arrive)
// with one difference, its stay flag: it cannot leave its shard — later
// commands of the same flow may already be popped behind it, and shard locks
// never nest — so under LQD it evicts from its own shard's longest queue
// when the pool is full, and drops (counted) when that cannot make room.
// Blocking arrivals get the exact global eviction. Nobody is waiting for a
// posted enqueue's outcome: it lives in the shard counters.

import (
	"runtime"

	"npqm/internal/ring"
)

// drainBatch is how many posted commands a drain pops at a time.
const drainBatch = 256

// command is one ring entry: a posted enqueue.
type command struct {
	flow uint32
	data []byte
}

// cmdRing is the per-shard command ring instantiation.
type cmdRing = ring.Ring[command]

// lock takes s's critical section: the mutex, then the posted enqueues that
// were in the ring at that moment. It is the only way in; enter is the
// datapath's refusing form. The section ends with s.unlock. Before Start
// there is no ring, and the check stays out here: a call into drain per
// entry cost the 64-byte round trip 10% (EXPERIMENTS.md, "One way into a
// shard").
func (e *Engine) lock(s *shard) {
	if !s.mu.TryLock() {
		s.lockContended()
	}
	if s.ring != nil {
		e.drain(s)
	}
}

// enter is lock for the datapath calls, which a closed engine refuses:
// false means the engine is closed and s is not held.
func (e *Engine) enter(s *shard) bool {
	if !s.mu.TryLock() {
		s.lockContended()
	}
	if e.closed() {
		s.mu.Unlock()
		return false
	}
	if s.ring != nil {
		e.drain(s)
	}
	return true
}

// lockContended takes s.mu after a TryLock failed, and marks the shard
// shared (see markShared): another goroutine held it a moment ago, so the
// lines this section reads were likely last written on another core. lock
// and enter try first, so an uncontended entry is an inlined TryLock, a
// load and a CAS, with nothing called.
func (s *shard) lockContended() {
	s.mu.Lock()
	s.markShared(sharedDrains)
}

// drain executes the commands that were in s's ring when it was called —
// not those posted meanwhile, so a steady producer cannot pin whoever
// entered the shard for something else. The count is of claimed slots, and
// a claimed slot is published within a few instructions: where PopBatch
// stops at one, drain yields and retries instead of returning, because the
// caller's own published post may sit behind another producer's unpublished
// slot, and returning there would run the caller's operation ahead of its
// own earlier post. The caller holds s.mu and has checked that s.ring
// exists.
func (e *Engine) drain(s *shard) {
	for left := s.ring.Len(); left > 0; {
		n := s.ring.PopBatch(s.cmds[:min(left, len(s.cmds))])
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := range s.cmds[:n] {
			c := &s.cmds[i]
			e.arrive(s, c.flow, c.data, len(c.data), nil, true) // stays: s remains held
			*c = command{}                                      // drop the payload reference promptly
		}
		left -= n
	}
}

// Start creates one command ring per shard and launches the per-shard
// workers: from here EnqueueAsync posts instead of entering the shard.
// Nothing else changes — every other call takes the shard mutex exactly as
// before, draining the ring on the way in. Idempotent; returns ErrClosed
// after Close. Safe to call while traffic flows.
func (e *Engine) Start() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.state.Load() {
	case stateClosed:
		return ErrClosed
	case stateStarted:
		return nil
	}
	rings := make([]*cmdRing, len(e.shards))
	for i := range rings {
		r, err := ring.New[command](e.cfg.RingCapacity)
		if err != nil {
			return err
		}
		rings[i] = r
	}
	for i, s := range e.shards {
		// s.ring is read inside critical sections (lock, enter) and, after
		// the state store below, by posters.
		s.mu.Lock()
		s.ring, s.cmds = rings[i], make([]command, drainBatch)
		s.mu.Unlock()
	}
	e.state.Store(stateStarted)
	e.workers.Add(len(e.shards))
	for _, s := range e.shards {
		go e.worker(s)
	}
	return nil
}

// Drain blocks until every command posted before the call has been
// executed: one pass through every shard's lock, each of which drains what
// its ring held. After Close it reports ErrClosed (Close itself drains).
func (e *Engine) Drain() error {
	for _, s := range e.shards {
		if !e.enter(s) {
			return ErrClosed
		}
		s.unlock()
	}
	return nil
}

// Close shuts the engine down, in this order. The state flips to closed:
// from that instant every datapath call and EnqueueAsync refuse with
// ErrClosed (calls already inside a shard finish normally). The rings are
// sealed, so a post racing the flip is either refused or accepted — and an
// accepted post is executed: the workers drain up to the sealed tails
// through the unconditional lock and exit, no packet or counter lost. The
// pacer, if ServeViews started it, is unparked and waited out last (a sink
// blocked forever therefore blocks Close). Close is idempotent and safe to
// call concurrently. After Close the observation surface (Stats and its
// per-shard, -port and -tier slices, CheckInvariants, Len, Flow,
// Config, FreeSegments, LentSegments) keeps working against the quiescent
// state. What was checked out stays the holder's to settle: a view
// retained across Close returns its chain to the pool on Release, and an
// open Reservation refuses Commit with ErrClosed and returns its run on
// Abort — neither enters a shard.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.state.Swap(stateClosed) {
	case stateClosed:
		return nil
	case stateStarted:
		for _, s := range e.shards {
			s.ring.Close()
		}
		e.workers.Wait()
	}
	close(e.portStop)
	e.portWG.Wait()
	return nil
}

// worker is shard s's progress guarantee: posted enqueues are executed by
// whoever enters the shard next, and when nobody does, by this goroutine —
// it waits for the ring to hold something, passes through the lock, and
// exits once the ring is sealed and drained. It carries no state of its own.
func (e *Engine) worker(s *shard) {
	defer e.workers.Done()
	idleFrom := e.clk.now()
	for {
		sealed := s.ring.WaitReady()
		busyFrom := e.clk.now()
		s.wIdleNs.Add(busyFrom - idleFrom)
		e.lock(s)
		s.unlock()
		idleFrom = e.clk.now() // the end of this pass is the start of the next wait
		s.wBusyNs.Add(idleFrom - busyFrom)
		if sealed && s.ring.Drained() {
			return
		}
	}
}

// EnqueueAsync posts a fire-and-forget enqueue of data onto flow: the call
// returns as soon as the command is in the shard's ring (blocking only for
// ring backpressure), and the outcome — linked, dropped by admission, or
// refused by the pool — is visible in Stats counters rather than returned.
// The engine reads data when the command executes, not when it is posted:
// the caller must not mutate the buffer until the command has been
// processed (after Drain or Close, or once observable via counters).
// Reusing one read-only payload buffer across posts is fine. The only
// error is ErrClosed. Before Start there is no ring: the call enqueues on
// the spot, its outcome likewise only counted.
func (e *Engine) EnqueueAsync(flow uint32, data []byte) error {
	s := e.shardOf(flow)
	if e.state.Load() == stateStarted {
		if s.ring.Push(command{flow: flow, data: data}) != nil {
			return ErrClosed // sealed by a Close that landed after the load
		}
		return nil
	}
	if !e.enter(s) {
		return ErrClosed
	}
	// Every outcome arrive can produce is counted; not held means a Close
	// landed mid-arrival, nothing was enqueued, and the caller is told.
	_, held, err := e.arrive(s, flow, data, len(data), nil, false)
	if !held {
		return err
	}
	s.unlock()
	return nil
}

// RingOccupancy returns the summed occupancy of all shard command rings —
// the posted enqueues nobody has executed yet. Zero before Start and after
// Close, which drained them.
func (e *Engine) RingOccupancy() int {
	if e.state.Load() != stateStarted {
		return 0
	}
	total := 0
	for _, s := range e.shards {
		total += s.ring.Len()
	}
	return total
}
