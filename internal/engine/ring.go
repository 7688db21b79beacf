package engine

// The asynchronous command-ring datapath. After Start, every shard owns a
// bounded MPSC command ring (internal/ring) and a worker goroutine that
// drains it in batches, run to completion — the software rendering of the
// paper's DMC/command-FIFO structure: producers post commands, the queue
// manager pipelines them, and nobody but the manager touches queue state.
// The worker is the shard's single writer, so command execution takes no
// mutex; producers pay one CAS per post, and a full ring applies
// backpressure instead of growing without bound.
//
// Calls that need results (EnqueuePacket, DequeuePacket, the batch APIs,
// DequeueNextBatch, all control-plane operations) block on completions: the
// poster allocates a pooled completion, posts one or more commands carrying
// it, and parks until the last worker decrements the countdown — one wakeup
// per producer batch, not per command. EnqueueAsync posts with no
// completion at all; its outcomes (admission drops, pool rejections) are
// visible in Stats counters.
//
// Cross-shard operations never run inside a worker, so workers cannot
// deadlock on each other: the calling goroutine orchestrates them as a
// sequence of single-shard commands (the LQD evict-and-retry loop, the
// cross-shard MovePacket unlink/link/rollback) — exactly the discipline the
// synchronous datapath already followed with its "shard locks never nest"
// rule. The one concession is a fire-and-forget LQD enqueue: its worker
// cannot block on other shards, so it evicts from its own shard's longest
// queue when the pool is full, and drops (counted) when that cannot make
// room.

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/ring"
)

// workerBatch is how many commands a worker drains per ring pop.
const workerBatch = 256

// cmdRing is the per-shard command ring instantiation.
type cmdRing = ring.Ring[command]

// opKind discriminates ring commands. The hot datapath kinds are
// dedicated (no closure allocation); everything slow or control-plane
// travels as an opCall closure.
type opKind uint8

const (
	opEnqueue     opKind = iota // fire-and-forget enqueue
	opEnqueueWait               // enqueue with completion + result
	opDequeue                   // dequeue of flow's head packet, as a copy or (view) a view
	opDequeueNext               // egress-picked dequeue of up to arg packets, likewise
	opReserve                   // open an arg-byte write-in-place reservation
	opCommit                    // splice a filled reservation onto its queue
	opRelieve                   // relief for an arrival homed elsewhere: evict while elected, flush the cache
	opCall                      // run fn inside the shard's critical section
	opBarrier                   // completion only: drain marker
)

// command is one ring entry.
type command struct {
	kind opKind
	view bool // opDequeue, opDequeueNext: deliver views, not copies (see shard.take)
	flow uint32
	arg  int
	port int32 // opDequeueNext: scheduling unit to pick from (anyPort = all)
	slot int32 // result slot in the completion's per-shard slices
	data []byte
	w    queue.PacketWriter // opCommit: the filled reservation to splice
	fn   func()
	co   *call
}

// call is a pooled completion: a countdown decremented by workers as they
// finish the commands carrying it, plus result slots for the dedicated
// kinds. The poster initializes pending to the command count plus one (its
// own hold), posts, releases the hold along with any commands it failed to
// post, and parks on done unless its own release reached zero. Whoever
// brings pending to zero sends the single wakeup, so one producer batch
// costs one channel operation no matter how many commands or shards it
// spanned.
type call struct {
	pending atomic.Int32
	done    chan struct{}

	// Result slots for dedicated command kinds (single-writer per slot).
	n    int
	err  error
	pkt  Dequeued           // opDequeue result
	w    queue.PacketWriter // opReserve result
	deq  []Dequeued         // single-shard opDequeueNext results
	deqs [][]Dequeued       // fan-out opDequeueNext results, one slice per shard
	segs atomic.Int64       // batch enqueue: total segments linked
}

// finishN retires n of c's commands in one countdown decrement. Workers
// call it once per completion per drained batch (see execBatch), so a
// multi-command completion costs its poster one wakeup and the worker one
// atomic per drain, not per command.
func (c *call) finishN(n int32) {
	if c.pending.Add(-n) == 0 {
		c.done <- struct{}{}
	}
}

// waitSpins is how many scheduler yields a completion waiter makes before
// parking on the channel. Yield-polling lets the workers run and finish
// short commands without paying a full park/unpark round trip — on a
// loaded box the completion usually lands within a few yields.
const waitSpins = 64

// wait parks until the countdown's single wakeup arrives.
func (c *call) wait() {
	for i := 0; i < waitSpins; i++ {
		select {
		case <-c.done:
			return
		default:
			runtime.Gosched()
		}
	}
	<-c.done
}

// release drops n holds from the poster side and parks until the workers
// are done (skipping the park when the poster's own release reached zero —
// then every worker had already finished and nobody will signal).
func (c *call) release(n int32) {
	if c.pending.Add(-n) != 0 {
		c.wait()
	}
}

func (e *Engine) getCall() *call {
	if v := e.callPool.Get(); v != nil {
		c := v.(*call)
		c.n, c.err = 0, nil
		c.w = queue.PacketWriter{}
		c.segs.Store(0)
		return c
	}
	return &call{done: make(chan struct{}, 1)}
}

func (e *Engine) putCall(c *call) {
	for i := range c.deq {
		c.deq[i] = Dequeued{}
	}
	c.deq = c.deq[:0]
	for i := range c.deqs {
		for j := range c.deqs[i] {
			c.deqs[i][j] = Dequeued{}
		}
		c.deqs[i] = c.deqs[i][:0]
	}
	c.deqs = c.deqs[:0]
	c.pkt = Dequeued{}
	e.callPool.Put(c)
}

// Start switches the engine from the synchronous to the ring datapath:
// it creates one command ring per shard, waits out every synchronous
// operation still holding a shard mutex, and launches the per-shard
// workers, which own their shards from then on. Idempotent; returns
// ErrClosed after Close. Safe to call while traffic flows — calls that
// began on the synchronous datapath finish there before the workers take
// over.
func (e *Engine) Start() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.mode.Load() {
	case modeClosed:
		return ErrClosed
	case modeRing:
		return nil
	}
	for _, s := range e.shards {
		r, err := ring.New[command](e.cfg.RingCapacity)
		if err != nil {
			return err
		}
		s.ring = r
	}
	e.mode.Store(modeRing)
	// Barrier: every synchronous-path critical section entered before the
	// flip still holds its shard mutex; acquiring and releasing all of them
	// guarantees those sections have finished. Sections entered after the
	// flip re-check the mode under the lock (lockSync) and bail out, so
	// once this loop completes the workers are the sole shard writers.
	for _, s := range e.shards {
		s.mu.Lock()
	}
	for _, s := range e.shards {
		s.mu.Unlock()
	}
	e.workers.Add(len(e.shards))
	for i := range e.shards {
		go e.worker(i)
	}
	return nil
}

// Drain blocks until every command posted before the call has been
// executed: it posts a barrier command to every shard ring and waits for
// the full countdown. On the synchronous datapath it is a no-op (nil);
// after Close it reports ErrClosed (Close itself drains).
func (e *Engine) Drain() error {
	for {
		switch e.mode.Load() {
		case modeSync:
			return nil
		case modeClosed:
			return ErrClosed
		}
		c := e.getCall()
		want := int32(len(e.shards))
		c.pending.Store(want + 1)
		posted := int32(0)
		for _, s := range e.shards {
			if s.ring.Push(command{kind: opBarrier, co: c}) == nil {
				posted++
			}
		}
		c.release(want - posted + 1)
		e.putCall(c)
		if posted == want {
			return nil
		}
		// Some rings refused: the engine is closing. Yield until Close
		// finishes flipping the mode, then report ErrClosed above.
		runtime.Gosched()
	}
}

// Close shuts the engine down. On the ring datapath it stops accepting new
// commands, lets the workers drain everything already posted (no packet or
// counter is lost), and waits for them to exit; blocked callers whose
// commands were accepted complete normally, later calls return ErrClosed.
// Port workers spawned by Serve are unparked and waited out last (a Sink
// blocked forever therefore blocks Close). Close is idempotent and safe
// to call concurrently. After Close the observation surface (Stats,
// ShardStats, PortStats, CheckInvariants, Len, Occupancy, ActiveFlows,
// FreeSegments) keeps working against the quiescent state.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	switch e.mode.Load() {
	case modeClosed:
		return nil
	case modeSync:
		e.mode.Store(modeClosed)
		e.stopPorts()
		return nil
	}
	// Order matters: the mode must not read modeClosed while any worker is
	// still draining, because the closed mode is what licenses run() and
	// the observation surface to fall back to the (otherwise unused) shard
	// mutexes. Sealing the rings first makes every new post fail with
	// ErrClosed — so the datapath refuses work throughout the drain window
	// — and only after the last worker has exited does the mode flip, at
	// which point the mutex fallback cannot race a worker.
	for _, s := range e.shards {
		s.ring.Close()
	}
	e.workers.Wait()
	e.mode.Store(modeClosed)
	e.stopPorts()
	return nil
}

// stopPorts unparks every port worker and waits for them to exit; called
// exactly once, under lifeMu, after the mode flipped to modeClosed.
func (e *Engine) stopPorts() {
	close(e.portStop)
	e.portWG.Wait()
}

// busyPollSpins is the bounded spin budget of Config.BusyPoll: how many
// empty polls (each yielding the processor) a worker makes before parking.
// Large enough to ride out a producer's inter-burst gap, small enough that
// a worker whose traffic stopped is parked within microseconds of the
// budget draining — the park-within-budget test holds the engine to that.
const busyPollSpins = 1024

// Work-stealing tuning. A victim is worth visiting when its ring backlog
// is at least stealThreshold commands (half a drain batch — below that the
// owner clears it faster than a thief can take the mutex), and a thief
// bites off at most stealBatch commands per visit so the owner is never
// starved of its own ring.
const (
	stealThreshold = workerBatch / 2
	stealBatch     = workerBatch / 4
)

// workerScratch is a worker's (or thief's) per-goroutine drain state:
// the command buffer plus the completion-flush table execBatch merges
// countdown decrements into. One allocation per worker, reused per drain.
type workerScratch struct {
	buf []command
	cos []*call
	cnt []int32
}

func newWorkerScratch() *workerScratch {
	return &workerScratch{
		buf: make([]command, workerBatch),
		cos: make([]*call, 0, workerBatch),
		cnt: make([]int32, 0, workerBatch),
	}
}

// execBatch runs a drained batch inside shard s's critical section and
// flushes completion countdowns merged per distinct completion — one
// decrement and at most one producer wakeup per completion per drain,
// instead of one per command. Merged decrements are counted on the shard
// as coalesced wakes. The caller must hold s's consumer role (own ring
// drain, or the shard mutex in work-stealing mode).
func (e *Engine) execBatch(s *shard, cmds []command, w *workerScratch) {
	cos, cnt := w.cos[:0], w.cnt[:0]
	coalesced := uint64(0)
	for i := range cmds {
		c := &cmds[i]
		co := c.co
		e.exec(s, c)
		if co != nil {
			// Reverse scan: commands sharing a completion are posted in
			// runs, so the previous entry hits first.
			merged := false
			for t := len(cos) - 1; t >= 0; t-- {
				if cos[t] == co {
					cnt[t]++
					coalesced++
					merged = true
					break
				}
			}
			if !merged {
				cos = append(cos, co)
				cnt = append(cnt, 1)
			}
		}
		cmds[i] = command{} // drop payload/closure references promptly
	}
	// The batch is this section's extent: publish before the flush, so the
	// mirror is exact by the time a woken producer can observe the batch.
	s.publish()
	for i := range cos {
		cos[i].finishN(cnt[i])
		cos[i] = nil // don't pin pooled completions through the scratch
	}
	if coalesced > 0 {
		s.coalescedWakes.Add(coalesced)
	}
	w.cos, w.cnt = cos[:0], cnt
}

// worker is shard si's single writer: it drains the shard's command ring
// in batches, run to completion, until the ring is closed and empty. With
// Config.WorkSteal it is instead the shard's *default* writer — execution
// is serialized by the shard mutex and idle siblings help out
// (workerSteal).
func (e *Engine) worker(si int) {
	defer e.workers.Done()
	s := e.shards[si]
	w := newWorkerScratch()
	if e.cfg.WorkSteal {
		e.workerSteal(si, w)
		return
	}
	for {
		var n int
		var closed bool
		t0 := time.Now()
		if e.cfg.BusyPoll {
			n, closed = s.ring.PopWaitSpin(w.buf, busyPollSpins)
		} else {
			n, closed = s.ring.PopWait(w.buf)
		}
		t1 := time.Now()
		s.wIdleNs.Add(t1.Sub(t0).Nanoseconds())
		if n > 0 {
			e.execBatch(s, w.buf[:n], w)
			s.wBusyNs.Add(time.Since(t1).Nanoseconds())
		}
		if closed {
			return
		}
	}
}

// workerSteal is the work-stealing variant of the worker loop. Every pop
// and exec on a shard happens under that shard's mutex, which restores
// mutual exclusion between the owner and thieves without giving up
// run-to-completion batching: the owner pays one uncontended lock per
// drained batch. Per-flow FIFO survives because commands leave a ring in
// order and never concurrently, and execution of a ring's commands is
// serialized by its shard's mutex. Deadlock cannot arise: a worker holds
// at most one shard mutex at a time (exec never enters another shard).
func (e *Engine) workerSteal(si int, w *workerScratch) {
	s := e.shards[si]
	for {
		s.mu.Lock()
		n := s.ring.PopBatch(w.buf)
		if n > 0 {
			t0 := time.Now()
			e.execBatch(s, w.buf[:n], w)
			s.mu.Unlock()
			s.wBusyNs.Add(time.Since(t0).Nanoseconds())
			if s.ring.Len() >= stealThreshold {
				// Still backlogged after a full batch: recruit a parked
				// sibling to steal from us.
				e.recruit(si)
			}
			continue
		}
		s.mu.Unlock()
		if s.ring.Closed() {
			if s.ring.Drained() {
				return
			}
			// Sealed but a claimed command is still publishing, or a thief
			// holds the mutex mid-drain; yield and re-check.
			runtime.Gosched()
			continue
		}
		if e.stealRound(si, w) {
			continue
		}
		spins := 0
		if e.cfg.BusyPoll {
			spins = busyPollSpins
		}
		t0 := time.Now()
		s.ring.WaitReady(spins)
		s.wIdleNs.Add(time.Since(t0).Nanoseconds())
	}
}

// stealRound scans the sibling shards once and executes up to stealBatch
// commands from each backlogged ring it can lock without waiting. Reports
// whether it executed anything (the caller then re-checks its own ring
// before scanning again). TryLock, never Lock: a thief must not queue
// behind the owner — that would serialize the very workers stealing is
// meant to spread.
func (e *Engine) stealRound(si int, w *workerScratch) bool {
	shards := e.shards
	n := len(shards)
	did := false
	for off := 1; off < n; off++ {
		v := shards[(si+off)%n]
		if v.ring.Len() < stealThreshold || !v.mu.TryLock() {
			continue
		}
		k := v.ring.PopBatch(w.buf[:stealBatch])
		if k > 0 {
			t0 := time.Now()
			e.execBatch(v, w.buf[:k], w)
			v.mu.Unlock()
			e.shards[si].wBusyNs.Add(time.Since(t0).Nanoseconds())
			e.shards[si].wStealBatches.Add(1)
			v.wStolenCmds.Add(uint64(k))
			did = true
		} else {
			v.mu.Unlock()
		}
	}
	return did
}

// recruit wakes one parked sibling worker so it can steal from a
// backlogged shard. Cost when nobody is parked: one atomic load per
// sibling, no syscalls.
func (e *Engine) recruit(si int) {
	n := len(e.shards)
	for off := 1; off < n; off++ {
		if e.shards[(si+off)%n].ring.Poke() {
			return
		}
	}
}

// exec runs one command inside shard s's critical section (the worker).
func (e *Engine) exec(s *shard, c *command) {
	switch c.kind {
	case opEnqueue:
		n, err := s.enqueueLocked(c.flow, c.data)
		switch {
		case err == errWantPushOut: //nolint:errorlint // internal sentinel, never wrapped
			n, err = e.enqueueEvictLocal(s, c.flow, c.data)
		case err != nil && s.admKind == policy.KindLQD && errors.Is(err, queue.ErrNoFreeSegments):
			// Pool exhausted (or its free segments stranded in other
			// shards' caches, which this worker must not touch): under
			// LQD the arrival is still entitled to eviction. Un-count the
			// rejection — the eviction path settles the packet's fate
			// exactly once.
			s.rejected--
			n, err = e.enqueueEvictLocal(s, c.flow, c.data)
		}
		_, _ = n, err // fire-and-forget: outcomes live in the shard counters
	case opEnqueueWait:
		c.co.n, c.co.err = s.enqueueLocked(c.flow, c.data)
	case opDequeue:
		c.co.err = s.take(&c.co.pkt, c.flow, c.view, unpicked)
	case opReserve:
		c.co.w, c.co.err = s.reserveLocked(c.flow, c.arg)
	case opCommit:
		c.co.err = s.commitLocked(c.flow, &c.w)
	case opDequeueNext:
		dst := &c.co.deq
		if len(c.co.deqs) > 0 {
			dst = &c.co.deqs[c.slot]
		}
		var d Dequeued
		for len(*dst) < c.arg && s.dequeuePicked(&d, int(c.port), c.view) {
			*dst = append(*dst, d)
		}
	case opRelieve:
		// The arrival allocates on another shard, so whatever is free here
		// — just evicted or merely cached — goes to the depot it can reach.
		e.pushOutElected(s, c.arg)
		s.m.FlushFree()
	case opCall:
		c.fn()
	case opBarrier:
		// Completion only.
	}
	// Completion countdowns are NOT decremented here: execBatch flushes
	// them merged per distinct completion at the end of the drained batch.
}

// enqueueEvictLocal handles an LQD push-out verdict for a fire-and-forget
// enqueue. The worker cannot leave its shard to evict the globally longest
// queue (workers never enter other shards — that is what makes them
// deadlock-free), so it approximates LQD locally: push out its own shard's
// longest queue until the arrival fits, else drop. Blocking enqueues get
// the exact global eviction, orchestrated by the calling goroutine.
func (e *Engine) enqueueEvictLocal(s *shard, flow uint32, data []byte) (int, error) {
	for round := 0; round < maxEvictAttempts; round++ {
		q, segs, err := s.m.PushOutLongest()
		if err != nil {
			break
		}
		s.notePushOut(uint32(q), segs)
		n, err := s.enqueueLocked(flow, data)
		switch {
		case err == errWantPushOut: //nolint:errorlint // internal sentinel, never wrapped
			continue
		case err != nil && errors.Is(err, queue.ErrNoFreeSegments):
			// Still short (the evicted packet was smaller than the
			// arrival): un-count the retry's rejection and evict again.
			s.rejected--
			continue
		default:
			return n, err
		}
	}
	return 0, s.noteDrop(segsFor(len(data)))
}

// post pushes cmd onto s's ring, blocking for backpressure; a closed ring
// maps to ErrClosed.
func (e *Engine) post(s *shard, cmd command) error {
	if s.ring.Push(cmd) != nil {
		return ErrClosed
	}
	return nil
}

// postWait runs cmd on s's worker under a completion of its own, waits,
// and returns the completion for the caller to read its result slots and
// recycle (putCall). nil means the ring refused the command (engine
// closing) — the caller re-resolves the mode.
func (e *Engine) postWait(s *shard, cmd command) *call {
	c := e.getCall()
	c.pending.Store(1)
	cmd.co = c
	if e.post(s, cmd) != nil {
		e.putCall(c)
		return nil
	}
	c.wait()
	return c
}

// EnqueueAsync posts a fire-and-forget enqueue of data onto flow: the call
// returns as soon as the command is in the shard's ring (blocking only for
// ring backpressure), and the outcome — linked, dropped by admission, or
// refused by the pool — is visible in Stats counters rather than returned.
// The engine reads data when the command executes, not when it is posted:
// the caller must not mutate the buffer until the command has been
// processed (after Drain or Close, or once observable via counters).
// Reusing one read-only payload buffer across posts is fine. The only
// error is ErrClosed. On the synchronous datapath it degrades to an
// immediate enqueue whose outcome is likewise only counted.
func (e *Engine) EnqueueAsync(flow uint32, data []byte) error {
	for {
		switch e.mode.Load() {
		case modeClosed:
			return ErrClosed
		case modeRing:
			s := e.shardOf(flow)
			if e.post(s, command{kind: opEnqueue, flow: flow, data: data}) != nil {
				return ErrClosed
			}
			return nil
		default:
			s := e.shardOf(flow)
			if !e.lockSync(s) {
				continue
			}
			// Every outcome arrive can produce is counted; a mode switch
			// mid-arrival (not held) enqueued nothing and resolves above, so
			// a Close landing there surfaces instead of losing the packet.
			if _, held, _ := e.arrive(s, flow, data, len(data), nil); held {
				s.unlock()
				return nil
			}
		}
	}
}

// arriveRing is a blocking ring-datapath arrival (EnqueuePacket, or with
// w != nil ReservePacket): the shard's worker runs admission and the manager
// call, and the calling goroutine orchestrates whatever relief a refusal
// needs — workers never enter other shards — as one posted opRelieve per
// visit, the victim named by the same lock-free election arrive uses.
func (e *Engine) arriveRing(s *shard, flow uint32, data []byte, size int, w *queue.PacketWriter) (n int, err error) {
	need := segsFor(size)
	cmd := command{kind: opEnqueueWait, flow: flow, data: data}
	if w != nil {
		cmd = command{kind: opReserve, flow: flow, arg: size}
	}
	for round := 0; ; round++ {
		c := e.postWait(s, cmd)
		if c == nil {
			return 0, ErrClosed
		}
		n, err = c.n, c.err
		if w != nil {
			*w = c.w
		}
		e.putCall(c)
		v := e.relief(s, need, err, round)
		if v == nil {
			if err == errWantPushOut { //nolint:errorlint // internal sentinel, never wrapped
				e.run(s, func() { _ = s.noteDrop(need) }) // the sentinel, below
				err = ErrAdmissionDrop
			}
			return n, err
		}
		e.runCmd(v, command{kind: opRelieve, arg: need})
	}
}

// dequeueNextRing asks s's worker for up to max egress-picked packets on
// port (anyPort = all scheduling units) and appends them to out.
func (e *Engine) dequeueNextRing(s *shard, port int, view bool, out []Dequeued, max int) []Dequeued {
	c := e.postWait(s, command{kind: opDequeueNext, arg: max, port: int32(port), view: view})
	if c == nil {
		return out
	}
	if out == nil && len(c.deq) > 0 {
		out = newBatch(len(c.deq), max)
	}
	out = append(out, c.deq...)
	e.putCall(c)
	return out
}

// dequeueNextRingAll is the ring datapath of DequeueNextBatch: one
// pick-and-dequeue command per shard under a single completion — one
// producer wakeup per call instead of one per shard. The budget is split
// across shards (rotated so shards share egress bandwidth); a second,
// serial pass hands leftover budget to shards that filled their split —
// they may hold more — so a backlog concentrated on one shard still drains
// at full batch size.
func (e *Engine) dequeueNextRingAll(start, max int, view bool) []Dequeued {
	n := len(e.shards)
	c := e.getCall()
	if cap(c.deqs) < n {
		c.deqs = make([][]Dequeued, n)
	} else {
		c.deqs = c.deqs[:n]
	}
	base, extra := max/n, max%n
	budget := func(i int) int {
		if i < extra {
			return base + 1
		}
		return base
	}
	c.pending.Store(int32(n) + 1)
	posted := int32(0)
	for i := 0; i < n; i++ {
		if budget(i) == 0 {
			continue
		}
		s := e.shards[(start+i)%n]
		if e.post(s, command{kind: opDequeueNext, arg: budget(i), port: anyPort, slot: int32(i), view: view, co: c}) == nil {
			posted++
		}
	}
	c.release(int32(n) - posted + 1)
	served := 0
	for i := 0; i < n; i++ {
		served += len(c.deqs[i])
	}
	var out []Dequeued
	if served > 0 {
		out = newBatch(served, max)
	}
	for i := 0; i < n; i++ {
		out = append(out, c.deqs[i]...)
	}
	// Serial top-up pass: shards that filled their split (they may hold
	// more) and shards the split gave nothing to (with max < shards, the
	// whole backlog may live on one of them — skipping them could report an
	// idle engine that isn't).
	for i := 0; i < n && len(out) < max; i++ {
		if b := budget(i); b == 0 || len(c.deqs[i]) == b {
			out = e.dequeueNextRing(e.shards[(start+i)%n], anyPort, view, out, max-len(out))
		}
	}
	e.putCall(c)
	return out
}

// RingOccupancy returns the summed occupancy of all shard command rings —
// the backlog the workers have yet to execute. Zero on the synchronous
// datapath.
func (e *Engine) RingOccupancy() int {
	if e.mode.Load() != modeRing {
		return 0
	}
	total := 0
	for _, s := range e.shards {
		total += s.ring.Len()
	}
	return total
}
