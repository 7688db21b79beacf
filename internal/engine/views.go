package engine

// The zero-copy scatter-gather datapath. The paper's queue manager never
// reassembles a packet: transmission is a DMA gather over the 64-byte
// segment chain, and reception writes segments into data memory as they
// arrive. This file is the engine-level rendering of both directions:
//
//   - Delivery: DequeuePacketView / DequeueNextView[Batch] /
//     DequeueViewBatch / ServeViews hand consumers queue.PacketView values
//     — the packet's segment chain checked out of the pool in the lent
//     state, its payload read in place through the view's iterator.
//     Releasing the view returns the whole chain to the store in one bulk
//     operation. No reassembly buffer, no copy, no allocation.
//   - Ingest: ReservePacket opens a write-in-place Reservation — the
//     segment run is allocated and linked up front, the producer fills the
//     per-segment slices (the iovecs a socket reader hands to readv), and
//     Commit splices the chain onto the flow's queue in O(1). Abort hands
//     the untouched run back in one bulk return.
//
// Reference discipline: every view starts with one reference owned by
// whoever the engine handed it to. Pull-API callers (DequeuePacketView,
// DequeueNextView, the batch paths) own their views and must Release each
// exactly once. Push-mode sinks (ServeViews) do NOT own the view — the
// engine drops its reference as soon as SendView returns — so a sink that
// completes transmission asynchronously (a NIC-style descriptor ring)
// must Retain before returning and Release on completion. Retain/Release
// are safe from any goroutine; double release panics (see
// queue.PacketView.Release).
//
// Accounting: segments checked out in views or open reservations are in
// the lent state, counted by Stats.LentSegments and by the conservation
// law CheckInvariants enforces (free + queued + floating + lent == pool).
// A view's segments count as dequeued when the view is produced — inside
// the shard's critical section, so the traffic counters never depend on
// when some other goroutine releases — and a reservation's count as
// enqueued at Commit. None of these paths touch Stats.CopiedBytes.

import (
	"fmt"
	"runtime"

	"npqm/internal/queue"
)

// PacketView is a zero-copy dequeued packet; see queue.PacketView for the
// iterator and reference-counting surface. Re-exported so engine callers
// need not import internal/queue.
type PacketView = queue.PacketView

// DequeuedView is one packet served by the view egress paths: the flow it
// was queued on, its payload byte count, and the view over its segment
// chain. The byte count comes from the queue accounting, so it is exact
// even when data storage is off (where the copy path can only estimate
// from the segment count).
type DequeuedView struct {
	Flow  uint32
	Bytes int
	View  PacketView
}

// SinkV consumes the packet views a port served through ServeViews
// transmits — the zero-copy counterpart of Sink. SendView may block (that
// is the backpressure path) and always runs on the port's home pacer
// goroutine, never concurrently with itself. Returning a non-nil error
// stops the port's service, exactly as Sink.Transmit does. The engine
// releases its reference to d.View when SendView returns, success or
// error: a sink that needs the view afterwards must Retain it first.
type SinkV interface {
	SendView(port int, d DequeuedView) error
}

// SinkVFunc adapts a function to the SinkV interface.
type SinkVFunc func(port int, d DequeuedView) error

// SendView implements SinkV.
func (f SinkVFunc) SendView(port int, d DequeuedView) error { return f(port, d) }

// --- delivery: per-flow and egress-picked view dequeues ---

// DequeuePacketView removes the head packet of flow as a zero-copy view.
// The caller owns the returned view and must Release it exactly once; the
// segments stay checked out of the pool (lent) until then. On the ring
// datapath the call blocks until the shard's worker has executed the
// command, like DequeuePacket.
func (e *Engine) DequeuePacketView(flow uint32) (PacketView, error) {
	s := e.shardOf(flow)
	for {
		switch e.mode.Load() {
		case modeClosed:
			return PacketView{}, ErrClosed
		case modeRing:
			return e.dequeueViewRingWait(s, flow)
		}
		if !e.lockSync(s) {
			continue
		}
		v, err := s.dequeueViewLocked(flow)
		s.unlock()
		return v, err
	}
}

// dequeueViewLocked is the per-flow view dequeue inside s's critical
// section: manager dequeue, traffic counters, active-list and residence
// maintenance — the view counterpart of the DequeuePacketAppend sites.
func (s *shard) dequeueViewLocked(flow uint32) (queue.PacketView, error) {
	v, err := s.m.DequeuePacketView(queue.QueueID(flow))
	s.noteDequeue(v.Segments(), err)
	if err == nil {
		s.syncActive(flow)
		s.noteRemoveRes(flow, true)
	}
	return v, err
}

// DequeueNextView serves one packet chosen by the egress discipline as a
// zero-copy view, whichever port it belongs to. ok is false when the
// engine holds no packets. The caller owns the view — Release it when
// done. On the synchronous datapath the call allocates nothing at all:
// the view is a value and there is no reassembly buffer.
func (e *Engine) DequeueNextView() (DequeuedView, bool) {
	n := len(e.shards)
	start := int((e.egCursor.Add(1) - 1) & uint32(n-1))
	for i := 0; i < n; i++ {
		s := e.shards[(start+i)%n]
		for {
			switch e.mode.Load() {
			case modeClosed:
				return DequeuedView{}, false
			case modeRing:
				if out := e.dequeueNextViewRing(s, anyPort, nil, 1); len(out) == 1 {
					return out[0], true
				}
			default:
				if !e.lockSync(s) {
					continue
				}
				d, ok := e.dequeuePickedView(s, anyPort)
				s.unlock()
				if ok {
					return d, true
				}
			}
			break
		}
	}
	return DequeuedView{}, false
}

// DequeueNextViewBatch serves up to max packets as zero-copy views,
// choosing flows by the configured egress discipline across all ports —
// DequeueNextBatch without the reassembly copies. The caller owns every
// returned view and must Release each exactly once.
func (e *Engine) DequeueNextViewBatch(max int) []DequeuedView {
	if max <= 0 {
		return nil
	}
	n := len(e.shards)
	// n is a power of two; mask before the int conversion so the uint32
	// cursor wrapping past 2^31 cannot go negative on 32-bit platforms.
	start := int((e.egCursor.Add(1) - 1) & uint32(n-1))
	if e.mode.Load() == modeRing {
		return e.dequeueNextViewRingAll(start, max)
	}
	var out []DequeuedView
	for i := 0; i < n && len(out) < max; i++ {
		out = e.drainShardViews(e.shards[(start+i)%n], anyPort, out, max)
	}
	return out
}

// drainShardViews is drainShard for view delivery: discipline-picked
// packets from one shard on one port (anyPort = all) until out reaches
// max or the shard has nothing servable, resolving the datapath mode per
// attempt. Shared by the pull API (DequeueNextViewBatch) and the pacers
// (dequeuePortViews).
func (e *Engine) drainShardViews(s *shard, port int, out []DequeuedView, max int) []DequeuedView {
	for {
		switch e.mode.Load() {
		case modeClosed:
			return out
		case modeRing:
			return e.dequeueNextViewRing(s, port, out, max-len(out))
		default:
			if !e.lockSync(s) {
				continue // datapath switched under us: re-resolve the mode
			}
			for len(out) < max {
				d, ok := e.dequeuePickedView(s, port)
				if !ok {
					break
				}
				if out == nil {
					out = newBatch[DequeuedView](1, max)
				}
				out = append(out, d)
			}
			s.unlock()
			return out
		}
	}
}

// dequeuePickedView serves one packet picked by the two-level discipline
// from shard s as a zero-copy view, inside s's critical section — the
// view mirror of dequeuePicked, with the same DRR charging (the byte
// count comes from the queue accounting, so class-level DRR conservation
// stays exact) and without the buffer pool round trip.
func (e *Engine) dequeuePickedView(s *shard, port int) (DequeuedView, bool) {
	for {
		flow, debit, ok := s.pickLocked(port)
		if !ok {
			return DequeuedView{}, false
		}
		v, err := s.m.DequeuePacketView(queue.QueueID(flow))
		s.noteDequeue(v.Segments(), err)
		if err != nil {
			// The list said active but no complete packet is available
			// (raw-segment misuse): deactivate the flow so the pick loop
			// cannot spin on it; no DRR debit — nothing was served.
			s.clearActive(flow)
			continue
		}
		bytes := v.Len()
		if debit != 0 {
			s.SetDeficit(int32(flow), s.Deficit(int32(flow))-debit)
		}
		if s.eg.hasLevelDRR {
			s.chargeLevels(flow, bytes)
		}
		s.syncActive(flow)
		s.noteRemoveRes(flow, true)
		return DequeuedView{Flow: flow, Bytes: bytes, View: v}, true
	}
}

// ReleaseViews releases every view in ds, returning the chains to the
// pool in one bulk transaction per shard instead of one per packet — the
// batch consumer's settlement call after DequeueNextViewBatch. Views
// still referenced by a Retain are skipped exactly as individual Release
// calls would skip them. Each entry's view is cleared, so re-running the
// slice cannot double-release (Flow and Bytes stay readable).
func (e *Engine) ReleaseViews(ds []DequeuedView) {
	var r queue.ViewReleaser
	for i := range ds {
		r.Add(ds[i].View)
		ds[i].View = queue.PacketView{}
	}
	r.Flush()
}

// DequeueViewBatch dequeues the head packet of every listed flow as a
// zero-copy view, bucketing by shard — DequeueBatch without the
// reassembly copies. Results are aligned with flows: views[i] is valid
// exactly when errs[i] is nil, and the caller must Release each valid
// view exactly once. A flow listed twice yields its first two packets in
// order.
func (e *Engine) DequeueViewBatch(flows []uint32) (views []PacketView, errs []error) {
	if len(flows) == 0 {
		return nil, nil
	}
	views = make([]PacketView, len(flows))
	errs = make([]error, len(flows))
	if e.mode.Load() == modeClosed {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return views, errs
	}
	b := e.getBuckets()
	for i, flow := range flows {
		si := e.ShardOf(flow)
		b.byShard[si] = append(b.byShard[si], int32(i))
	}
	if e.mode.Load() == modeRing {
		e.dequeueViewBatchRing(flows, views, errs, b)
	} else {
		e.dequeueViewBatchSync(flows, views, errs, b)
	}
	e.putBuckets(b)
	return views, errs
}

// dequeueViewBatchSync is the mutex-datapath bucket walk.
func (e *Engine) dequeueViewBatchSync(flows []uint32, views []PacketView, errs []error, b *buckets) {
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		if !e.lockSync(s) {
			// Datapath switched under us: replay this bucket per-packet.
			for _, i := range idxs {
				views[i], errs[i] = e.DequeuePacketView(flows[i])
			}
			continue
		}
		for _, i := range idxs {
			views[i], errs[i] = s.dequeueViewLocked(flows[i])
		}
		s.unlock()
	}
}

// dequeueViewBatchRing posts one command per touched shard under a shared
// completion; each worker fills its bucket's result slots directly.
func (e *Engine) dequeueViewBatchRing(flows []uint32, views []PacketView, errs []error, b *buckets) {
	c := e.getCall()
	var want int32
	for _, idxs := range b.byShard {
		if len(idxs) > 0 {
			want++
		}
	}
	c.pending.Store(want + 1)
	posted := int32(0)
	for si, idxs := range b.byShard {
		if len(idxs) == 0 {
			continue
		}
		s := e.shards[si]
		idxs := idxs
		cmd := command{kind: opCall, co: c, fn: func() {
			for _, i := range idxs {
				views[i], errs[i] = s.dequeueViewLocked(flows[i])
			}
		}}
		if e.post(s, cmd) != nil {
			for _, i := range idxs {
				errs[i] = ErrClosed
			}
			continue
		}
		posted++
	}
	c.release(want - posted + 1)
	e.putCall(c)
}

// --- delivery: ring-datapath posters ---

// dequeueViewRingWait posts a blocking view dequeue and returns the
// worker's result.
func (e *Engine) dequeueViewRingWait(s *shard, flow uint32) (PacketView, error) {
	c := e.getCall()
	c.pending.Store(1)
	if e.post(s, command{kind: opDequeueViewWait, flow: flow, co: c}) != nil {
		e.putCall(c)
		return PacketView{}, ErrClosed
	}
	c.wait()
	v, err := c.view, c.err
	e.putCall(c)
	return v, err
}

// dequeueNextViewRing asks s's worker for up to max egress-picked views
// on port (anyPort = all scheduling units) and appends them to out.
func (e *Engine) dequeueNextViewRing(s *shard, port int, out []DequeuedView, max int) []DequeuedView {
	c := e.getCall()
	c.pending.Store(1)
	if e.post(s, command{kind: opDequeueNextView, arg: max, port: int32(port), co: c}) != nil {
		e.putCall(c)
		return out
	}
	c.wait()
	if out == nil && len(c.deqv) > 0 {
		out = newBatch[DequeuedView](len(c.deqv), max)
	}
	out = append(out, c.deqv...)
	e.putCall(c)
	return out
}

// dequeueNextViewRingAll is the ring datapath of DequeueNextViewBatch:
// one pick-and-dequeue command per shard under a single completion, with
// the same budget split and serial top-up pass as dequeueNextRingAll.
func (e *Engine) dequeueNextViewRingAll(start, max int) []DequeuedView {
	n := len(e.shards)
	c := e.getCall()
	if cap(c.deqvs) < n {
		c.deqvs = make([][]DequeuedView, n)
	} else {
		c.deqvs = c.deqvs[:n]
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
		if e.post(s, command{kind: opDequeueNextView, arg: budget(i), port: anyPort, slot: int32(i), co: c}) == nil {
			posted++
		}
	}
	c.release(int32(n) - posted + 1)
	served := 0
	for i := 0; i < n; i++ {
		served += len(c.deqvs[i])
	}
	var out []DequeuedView
	if served > 0 {
		out = newBatch[DequeuedView](served, max)
	}
	for i := 0; i < n; i++ {
		out = append(out, c.deqvs[i]...)
	}
	// Serial top-up pass: shards that filled their split (they may hold
	// more) and shards the split gave nothing to (with max < shards, the
	// whole backlog may live on one of them — skipping them could report an
	// idle engine that isn't).
	for i := 0; i < n && len(out) < max; i++ {
		if b := budget(i); b == 0 || len(c.deqvs[i]) == b {
			out = e.dequeueNextViewRing(e.shards[(start+i)%n], anyPort, out, max-len(out))
		}
	}
	e.putCall(c)
	return out
}

// --- delivery: push mode ---

// ServeViews registers sink as port's zero-copy transmitter — Serve with
// packet views instead of reassembled buffers. The pacer picks packets
// via the configured disciplines, paces them against the port's shaper,
// and pushes views into sink until the engine closes or sink returns an
// error (on which the rest of the picked burst is released, counted as
// dequeued but not transmitted). The engine drops its reference to each
// view as SendView returns; asynchronous sinks Retain first. One service
// per port; a second Serve or ServeViews on a live port fails.
func (e *Engine) ServeViews(port int, sink SinkV) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if sink == nil {
		return fmt.Errorf("engine: nil view sink for port %d", port)
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.mode.Load() == modeClosed {
		return ErrClosed
	}
	if !p.serving.CompareAndSwap(false, true) {
		return fmt.Errorf("engine: port %d is already being served", port)
	}
	p.sink.Store(&sinkBox{sinkV: sink})
	p.pc.start()
	p.kick()
	return nil
}

// dequeuePortViews serves up to max views from p's scheduling units,
// rotating the starting shard per call, appending to out — dequeuePort
// for the view serve loop. Only p's home pacer calls it (shardCursor is
// pacer-local).
func (e *Engine) dequeuePortViews(p *port, out []DequeuedView, max int) []DequeuedView {
	n := len(e.shards)
	p.shardCursor++
	start := int(p.shardCursor) % n
	for i := 0; i < n && len(out) < max; i++ {
		out = e.drainShardViews(e.shards[(start+i)%n], p.idx, out, max)
	}
	return out
}

// --- ingest: write-in-place reservations ---

// Reservation is an open write-in-place ingest on the engine: a
// pre-linked, pre-sized segment run the producer fills through Range
// before Commit splices it onto the flow's queue — no staging buffer, no
// copy. The zero value is terminal. A reservation must end in exactly one
// Commit or Abort; later terminal calls return queue.ErrWriterDone.
// Reservations are single-goroutine values (the producer that opened one
// fills and settles it); Abort alone is safe from any goroutine.
type Reservation struct {
	e    *Engine
	s    *shard
	flow uint32
	w    queue.PacketWriter
}

// Valid reports whether the reservation is still open.
func (r *Reservation) Valid() bool { return r.e != nil }

// Flow returns the destination flow.
func (r *Reservation) Flow() uint32 { return r.flow }

// Len returns the reserved payload length in bytes.
func (r *Reservation) Len() int { return r.w.Len() }

// Segments returns the number of reserved segments.
func (r *Reservation) Segments() int { return r.w.Segments() }

// Range calls fn with each reserved segment's writable payload slice in
// packet order, stopping early if fn returns false — the iovecs a socket
// reader hands to readv. See queue.PacketWriter.Range.
func (r *Reservation) Range(fn func(seg []byte) bool) { r.w.Range(fn) }

// ReservePacket opens an n-byte write-in-place reservation on flow: the
// segment run is allocated, linked and charged against admission now, and
// the packet joins the queue when the producer calls Commit on the
// returned Reservation (Abort returns the run untouched). Admission
// behaves exactly as EnqueuePacket's: a policy refusal returns
// ErrAdmissionDrop, and under LQD the arrival may evict packets from the
// globally longest queue to make room. The payload is never copied and
// Stats.CopiedBytes does not move.
func (e *Engine) ReservePacket(flow uint32, n int) (Reservation, error) {
	s := e.shardOf(flow)
	r := Reservation{e: e, s: s, flow: flow}
	for {
		var err error
		switch e.mode.Load() {
		case modeClosed:
			return Reservation{}, ErrClosed
		case modeRing:
			_, err = e.arriveRing(s, flow, nil, n, &r.w)
		default:
			if !e.lockSync(s) {
				continue
			}
			var held bool
			if _, held, err = e.arrive(s, flow, nil, n, &r.w); !held {
				continue
			}
			s.unlock()
		}
		if err != nil {
			return Reservation{}, err
		}
		return r, nil
	}
}

// reserveLocked runs admission then the manager reservation, inside s's
// critical section — enqueueLocked with the payload copy replaced by a
// checked-out run. No traffic counters move here: the packet counts as
// enqueued at Commit, and a manager refusal counts as rejected exactly
// like a refused enqueue.
func (s *shard) reserveLocked(flow uint32, n int) (queue.PacketWriter, error) {
	if s.adm != nil && n > 0 {
		if err := s.admitNeedLocked(flow, segsFor(n)); err != nil {
			return queue.PacketWriter{}, err
		}
	}
	w, err := s.m.ReservePacket(queue.QueueID(flow), n)
	if err != nil {
		s.rejected++
	}
	return w, err
}

// commitLocked splices a filled reservation inside s's critical section
// and settles the enqueue-side bookkeeping the reservation deferred.
func (s *shard) commitLocked(flow uint32, w *queue.PacketWriter) error {
	segs := w.Segments()
	if err := w.Commit(); err != nil {
		return err
	}
	s.enqPackets++
	s.enqSegments += uint64(segs)
	s.setActive(flow)
	s.noteEnqueueRes(flow)
	return nil
}

// Commit splices the filled run onto the flow's queue — the packet
// becomes visible to dequeues and counts as enqueued from here. After a
// successful Commit the reservation is terminal. Committing on a closed
// engine returns ErrClosed with the reservation still open; Abort (which
// needs no datapath) then returns the segments.
func (r *Reservation) Commit() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	e, s := r.e, r.s
	for {
		switch e.mode.Load() {
		case modeClosed:
			return ErrClosed
		case modeRing:
			ok, err := e.commitRing(s, r.flow, &r.w)
			if !ok {
				// The ring refused (engine closing): yield until the mode
				// flips and report ErrClosed above.
				runtime.Gosched()
				continue
			}
			if err == nil {
				*r = Reservation{}
			}
			return err
		default:
			if !e.lockSync(s) {
				continue
			}
			err := s.commitLocked(r.flow, &r.w)
			s.unlock()
			if err == nil {
				*r = Reservation{}
			}
			return err
		}
	}
}

// Abort scrubs the reserved run and returns it to the pool without ever
// touching the queue — safe from any goroutine and on any datapath,
// including after Close. The reservation becomes terminal. Nothing is
// counted: the packet never entered the books.
func (r *Reservation) Abort() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	err := r.w.Abort()
	*r = Reservation{}
	return err
}

// --- ingest: ring-datapath posters ---

// reserveRingWait posts a blocking reservation and returns the worker's
// verdict; errWantPushOut surfaces to arriveRing.
func (e *Engine) reserveRingWait(s *shard, flow uint32, n int) (queue.PacketWriter, error) {
	c := e.getCall()
	c.pending.Store(1)
	if e.post(s, command{kind: opReserve, flow: flow, arg: n, co: c}) != nil {
		e.putCall(c)
		return queue.PacketWriter{}, ErrClosed
	}
	c.wait()
	w, err := c.w, c.err
	e.putCall(c)
	return w, err
}

// commitRing posts a blocking commit. ok is false when the ring refused
// the command (engine closing) — the reservation is untouched and the
// caller re-resolves the mode.
func (e *Engine) commitRing(s *shard, flow uint32, w *queue.PacketWriter) (ok bool, err error) {
	c := e.getCall()
	c.pending.Store(1)
	if e.post(s, command{kind: opCommit, flow: flow, w: *w, co: c}) != nil {
		e.putCall(c)
		return false, nil
	}
	c.wait()
	err = c.err
	e.putCall(c)
	return true, err
}

// LentSegments returns the pool-wide lent population: segments checked
// out in packet views and open reservations right now.
func (e *Engine) LentSegments() int { return e.store.Lent() }
