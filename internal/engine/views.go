package engine

// The zero-copy scatter-gather surface. The paper's queue manager never
// reassembles a packet: transmission is a DMA gather over the 64-byte
// segment chain, and reception writes segments into data memory as they
// arrive. This file is the engine-level rendering of both directions:
//
//   - Delivery: DequeuePacketView / DequeueNextView[Batch] / ServeViews
//     hand consumers queue.PacketView values — the packet's segment chain
//     checked out of the pool in the lent state, its payload read in place
//     through the view's iterator. Releasing the view returns the whole
//     chain to the store in one bulk operation. No reassembly buffer, no
//     copy, no allocation. These are entry points only: the per-flow one
//     runs the engine's per-flow dequeue and the picked ones its one shard
//     walk (pull), each with view set, and shard.take is where the flag is
//     acted on.
//   - Ingest: ReservePacket opens a write-in-place Reservation — the
//     segment run is allocated and linked up front, the producer fills the
//     slices Range yields (one per contiguous run, at most one per
//     segment: the iovecs a socket reader hands to readv), and Commit
//     splices the chain onto the flow's queue in O(1). Abort hands the
//     untouched run back in one bulk return.
//
// Reference discipline: every view starts with one reference owned by
// whoever the engine handed it to. Pull-API callers (DequeuePacketView,
// DequeueNextView[Batch]) own their views and must Release each
// exactly once. Push-mode sinks (ServeViews) do NOT own the view — the
// engine drops its reference as soon as SendView returns — so a sink that
// completes transmission asynchronously (a NIC-style descriptor ring)
// must Retain before returning and Release on completion, and one that
// wants the payload in one piece copies it out (PacketView.AppendTo) while
// it holds the view. Retain/Release
// are safe from any goroutine; double release panics (see
// queue.PacketView.Release).
//
// Accounting: segments checked out in views or open reservations are lent,
// counted by Stats.LentSegments and by the conservation
// law CheckInvariants enforces (free + queued + lent == pool).
// A view's segments count as dequeued when the view is produced — inside
// the shard's critical section, so the traffic counters never depend on
// when some other goroutine releases — and a reservation's count as
// enqueued at Commit. None of these paths touch Stats.CopiedBytes.

import (
	"fmt"

	"npqm/internal/queue"
)

// PacketView is a zero-copy dequeued packet; see queue.PacketView for the
// iterator and reference-counting surface. Re-exported so engine callers
// need not import internal/queue.
type PacketView = queue.PacketView

// SinkV consumes the packets a served port transmits, as views — push
// delivery has this one form. SendView may block: that is the backpressure
// path, the pacer will not pick another packet for this port until it
// returns (and a SendView that blocks indefinitely stalls every served
// port: one pacer serves them all). It always runs on the engine's pacer
// goroutine, never concurrently with any SendView of any port, and outside
// every shard lock.
// Returning a non-nil error stops the port's service (the port can be
// served again), and so does a panic, which the pacer recovers and counts
// in PortStat.SinkPanics. The engine releases its reference to d.View when
// SendView returns, success, error or panic: a sink that needs the view
// afterwards must Retain it first, and one that wants contiguous bytes
// copies them out itself with d.View.AppendTo(buf).
type SinkV interface {
	SendView(port int, d DequeuedView) error
}

// SinkVFunc adapts a function to the SinkV interface.
type SinkVFunc func(port int, d DequeuedView) error

// SendView implements SinkV.
func (f SinkVFunc) SendView(port int, d DequeuedView) error { return f(port, d) }

// --- delivery ---

// DequeuePacketView removes the head packet of flow as a zero-copy view.
// The caller owns the returned view and must Release it exactly once; the
// segments stay checked out of the pool (lent) until then.
func (e *Engine) DequeuePacketView(flow uint32) (PacketView, error) {
	d, err := e.dequeue(flow, true)
	return d.View, err
}

// DequeueNextView serves one packet chosen by the egress discipline as a
// zero-copy view, whichever port it belongs to. ok is false when the
// engine holds no packets. The caller owns the view — Release it when
// done. The call allocates nothing at all: the view is a value and there
// is no reassembly buffer.
func (e *Engine) DequeueNextView() (DequeuedView, bool) {
	var one [1]Dequeued // a batch of one, held in this frame
	ok := len(e.pull(e.egCursor.Add(1)-1, anyPort, true, one[:0], 1, unshapedBudget)) == 1
	return one[0], ok
}

// DequeueNextViewBatch serves up to max packets as zero-copy views,
// choosing flows by the configured egress discipline across all ports —
// DequeueNextBatch without the reassembly copies. The caller owns every
// returned view and must Release each exactly once.
func (e *Engine) DequeueNextViewBatch(max int) []DequeuedView { return e.dequeueNextBatch(max, true) }

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

// ServeViews registers sink as port's transmitter and hands the port to the
// engine's pacer (starting its goroutine on first use): the pacer picks
// packets via the configured disciplines, paces them against the port's
// shaper on its timing wheel, and pushes them into sink as views until the
// engine closes or sink returns an error or panics. Either way,
// packets already picked for the current burst are released — counted as
// dequeued but not transmitted, like frames lost on a failing link. The
// engine drops its reference to each view as SendView returns; asynchronous
// sinks Retain first. One service per port; a second ServeViews on a live
// port fails. Serving any number of ports costs one goroutine in all, not
// one per port or per shard.
func (e *Engine) ServeViews(port int, sink SinkV) error {
	p, err := e.portAt(port)
	if err != nil {
		return err
	}
	if sink == nil {
		return fmt.Errorf("engine: nil sink for port %d", port)
	}
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed() {
		return ErrClosed
	}
	if !p.serving.CompareAndSwap(false, true) {
		return fmt.Errorf("engine: port %d is already being served", port)
	}
	p.sink.Store(&sink)
	p.txLastNs.Store(noDeparture) // a re-arm must not count downtime as a gap
	p.pc.start()
	p.kick()
	return nil
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

// Range calls fn with the reserved payload memory in packet order — one
// writable slice per contiguous run of the reservation, at most one per
// segment, together exactly Len bytes — stopping early if fn returns
// false: the iovecs a socket reader hands to readv. See
// queue.PacketWriter.Range.
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
	if !e.enter(s) {
		return Reservation{}, ErrClosed
	}
	_, held, err := e.arrive(s, flow, nil, n, &r.w, false)
	if held {
		s.unlock()
	}
	if err != nil {
		return Reservation{}, err
	}
	return r, nil
}

// Commit splices the filled run onto the flow's queue — the packet
// becomes visible to dequeues and counts as enqueued from here. After a
// successful Commit the reservation is terminal. Committing on a closed
// engine returns ErrClosed with the reservation still open; Abort (which
// enters no shard) then returns the segments.
func (r *Reservation) Commit() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	s := r.s
	if !r.e.enter(s) {
		return ErrClosed
	}
	segs := r.w.Segments()
	err := r.w.Commit()
	if err == nil {
		s.cache.HintNext(int32(segs)) // the producer's stage (DESIGN.md), under the lock
		s.joined(r.flow, segs, arrived)
		*r = Reservation{}
	}
	s.unlock()
	return err
}

// Abort returns the reserved run to the pool without ever touching the
// queue — safe from any goroutine, including after Close. The
// reservation becomes terminal. Nothing is counted: the packet never
// entered the books.
func (r *Reservation) Abort() error {
	if r.e == nil {
		return queue.ErrWriterDone
	}
	err := r.w.Abort()
	*r = Reservation{}
	return err
}

// LentSegments returns the pool-wide lent population: segments checked
// out in packet views and open reservations, as of each shard's last
// critical section (segstore.Cache.Lend has the contract).
func (e *Engine) LentSegments() int { return e.store.Lent() }
