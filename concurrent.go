package npqm

import (
	"sync"

	"npqm/internal/engine"
)

// ConcurrentQueueManager is the goroutine-safe, sharded variant of
// QueueManager: the flow space is hash-partitioned across queue-manager
// shards, so enqueues and dequeues on different shards proceed in
// parallel, while segment memory stays one shared pool — as in the paper,
// where every per-flow queue allocates 64-byte segments from a single data
// memory. Shards draw from the pool through per-shard magazine caches (a
// lock-free depot underneath), so a single hot flow can consume nearly the
// whole buffer and admission policies see true pool-wide occupancy.
// Per-flow FIFO order is preserved — a flow always maps to the same shard.
//
// Two datapaths are available. The default is synchronous: every call
// locks the owning shard, operates, returns. Start switches to the
// asynchronous command-ring datapath — the software rendering of the
// paper's command FIFOs: callers post commands into a bounded ring per
// shard and a per-shard worker goroutine drains them run-to-completion as
// the shard's single writer, so producers pipeline instead of serializing
// on lock handoff. The synchronous API keeps working after Start as a thin
// blocking wrapper over the rings; EnqueueAsync posts fire-and-forget.
//
// # Error contract
//
// Datapath methods return these classifiable sentinels (use errors.Is):
// ErrQueueEmpty / ErrNoPacket (nothing to serve), ErrNoFreeSegments (pool
// exhausted with no admission policy), ErrQueueLimit (per-flow cap),
// ErrAdmissionDrop (policy refusal — counted, not a caller error),
// ErrClosed (after Close). Configuration methods taking a flow ID
// (SetFlowLimit, SetWeight) return ErrUnknownFlow for flows outside the
// configured flow space.
type ConcurrentQueueManager struct {
	e *engine.Engine

	// reqPool recycles the []engine.EnqueueReq conversion buffers of
	// EnqueueBatch so the facade adds no per-burst allocation on top of the
	// engine's allocation-free batch path.
	reqPool sync.Pool
}

// Sentinel errors of the concurrent engine, re-exported for errors.Is.
var (
	// ErrClosed is returned by every datapath call after Close.
	ErrClosed = engine.ErrClosed
	// ErrUnknownFlow is returned by SetFlowLimit and SetWeight for flow
	// IDs outside the configured flow space.
	ErrUnknownFlow = engine.ErrUnknownFlow
)

// PacketEnqueue is one packet of an EnqueueBatch call.
type PacketEnqueue struct {
	Flow uint32
	Data []byte
}

// EngineStats is the aggregate cross-shard statistics snapshot.
type EngineStats = engine.Stats

// NewConcurrentQueueManager allocates a sharded queue manager with the
// given flow count (0 means 32K), shared segment pool, and shard count
// (0 means 8; rounded up to a power of two). All shards allocate from the
// one pool.
func NewConcurrentQueueManager(flows, segments, shards int) (*ConcurrentQueueManager, error) {
	e, err := engine.New(engine.Config{
		Shards:      shards,
		NumFlows:    flows,
		NumSegments: segments,
		StoreData:   true,
	})
	if err != nil {
		return nil, err
	}
	return &ConcurrentQueueManager{e: e}, nil
}

// Shards returns the shard count.
func (cm *ConcurrentQueueManager) Shards() int { return cm.e.Shards() }

// Start switches the manager onto the asynchronous command-ring datapath:
// one bounded MPSC command ring and one worker goroutine per shard, with
// the worker as the shard's single writer. Safe while traffic flows;
// idempotent; ErrClosed after Close.
func (cm *ConcurrentQueueManager) Start() error { return cm.e.Start() }

// Drain blocks until every command posted before the call — including
// EnqueueAsync backlogs — has been executed. No-op on the synchronous
// datapath.
func (cm *ConcurrentQueueManager) Drain() error { return cm.e.Drain() }

// Close shuts the manager down: pending ring commands drain (no packet or
// counter is lost), workers exit, and later datapath calls return
// ErrClosed. Idempotent. The observation surface (Stats, Len, ActiveFlows,
// CheckInvariants, ...) keeps working against the quiescent state.
func (cm *ConcurrentQueueManager) Close() error { return cm.e.Close() }

// EnqueueAsync posts a fire-and-forget enqueue on the ring datapath: it
// returns once the command is in the shard's ring (blocking only for ring
// backpressure) and the outcome — linked, dropped, or refused — is
// reported through Stats counters. The engine reads data when the command
// executes: do not mutate the buffer until the command has been processed
// (reusing one read-only payload across posts is fine). The only error is
// ErrClosed.
func (cm *ConcurrentQueueManager) EnqueueAsync(q uint32, data []byte) error {
	return cm.e.EnqueueAsync(q, data)
}

// RingOccupancy returns the total number of commands waiting in the shard
// rings (0 on the synchronous datapath) — the backlog the workers have yet
// to execute.
func (cm *ConcurrentQueueManager) RingOccupancy() int { return cm.e.RingOccupancy() }

// EnqueuePacket segments data onto flow q; it returns the segment count.
// Safe for concurrent use.
func (cm *ConcurrentQueueManager) EnqueuePacket(q uint32, data []byte) (int, error) {
	return cm.e.EnqueuePacket(q, data)
}

// DequeuePacket removes and reassembles the packet at the head of flow q.
// The returned buffer is pooled; hand it back with ReleaseBuffer when done.
func (cm *ConcurrentQueueManager) DequeuePacket(q uint32) ([]byte, error) {
	return cm.e.DequeuePacket(q)
}

// ReleaseBuffer recycles a buffer returned by DequeuePacket, DequeueBatch,
// DequeueNext or DequeueNextBatch.
func (cm *ConcurrentQueueManager) ReleaseBuffer(buf []byte) { cm.e.ReleaseBuffer(buf) }

// DequeuePacketView removes the packet at the head of flow q as a
// zero-copy view over its segment chain — no reassembly buffer, no copy.
// The caller owns the view and must Release it exactly once; its segments
// stay checked out of the shared pool (lent) until then.
func (cm *ConcurrentQueueManager) DequeuePacketView(q uint32) (PacketView, error) {
	return cm.e.DequeuePacketView(q)
}

// DequeueNextView serves one packet chosen by the configured egress
// discipline as a zero-copy view. ok is false when the manager holds no
// packets. Release the view when done.
func (cm *ConcurrentQueueManager) DequeueNextView() (DequeuedView, bool) {
	return cm.e.DequeueNextView()
}

// DequeueNextViewBatch serves up to max packets chosen by the configured
// egress discipline as zero-copy views, rotating the starting shard per
// call. Release every view exactly once.
func (cm *ConcurrentQueueManager) DequeueNextViewBatch(max int) []DequeuedView {
	return cm.e.DequeueNextViewBatch(max)
}

// ReleaseViews releases every view in ds in one pool transaction per
// shard — the efficient settlement for a DequeueNextViewBatch. Retained
// views are skipped, and each entry's view is cleared so re-running the
// slice cannot double-release.
func (cm *ConcurrentQueueManager) ReleaseViews(ds []DequeuedView) {
	cm.e.ReleaseViews(ds)
}

// DequeueViewBatch dequeues the head packet of every listed flow as a
// zero-copy view, locking each shard once. views[i] is valid exactly when
// errs[i] is nil; Release each valid view exactly once.
func (cm *ConcurrentQueueManager) DequeueViewBatch(flows []uint32) ([]PacketView, []error) {
	return cm.e.DequeueViewBatch(flows)
}

// ReservePacket opens an n-byte write-in-place reservation on flow q: the
// segment run is allocated and charged against admission now, the caller
// fills the per-segment slices via Reservation.Range (readv-style), and
// Commit splices the packet onto the queue without the payload ever being
// copied. Abort returns the segments untouched.
func (cm *ConcurrentQueueManager) ReservePacket(q uint32, n int) (Reservation, error) {
	return cm.e.ReservePacket(q, n)
}

// ServeViews registers sink as port's zero-copy transmitter — Serve with
// packet views instead of reassembled buffers. The manager drops its
// reference to each view when SendView returns; a sink that completes
// transmission asynchronously must Retain the view first.
func (cm *ConcurrentQueueManager) ServeViews(port int, sink SinkV) error {
	return cm.e.ServeViews(port, sink)
}

// LentSegments returns the number of segments currently checked out in
// packet views and open reservations.
func (cm *ConcurrentQueueManager) LentSegments() int { return cm.e.LentSegments() }

// EnqueueBatch enqueues a burst of packets, locking each shard once. A nil
// errs means every packet was accepted; otherwise errs[i] reports the
// outcome of batch[i]. The return value is the total segment count linked.
// The all-accepted path performs no allocation.
func (cm *ConcurrentQueueManager) EnqueueBatch(batch []PacketEnqueue) (int, []error) {
	var box *[]engine.EnqueueReq
	if v := cm.reqPool.Get(); v != nil {
		box = v.(*[]engine.EnqueueReq)
	} else {
		box = new([]engine.EnqueueReq)
	}
	reqs := (*box)[:0]
	for _, p := range batch {
		reqs = append(reqs, engine.EnqueueReq{Flow: p.Flow, Data: p.Data})
	}
	n, errs := cm.e.EnqueueBatch(reqs)
	clear(reqs) // drop payload references before pooling
	*box = reqs
	cm.reqPool.Put(box)
	return n, errs
}

// DequeueBatch dequeues the head packet of every listed flow, locking each
// shard once. Buffers are pooled; Release them when done.
func (cm *ConcurrentQueueManager) DequeueBatch(flows []uint32) ([][]byte, []error) {
	return cm.e.DequeueBatch(flows)
}

// MovePacket relinks the head packet of one flow onto another — pure
// pointer surgery on the shared slab whether or not the flows share a
// shard; data is never copied.
func (cm *ConcurrentQueueManager) MovePacket(from, to uint32) (int, error) {
	return cm.e.MovePacket(from, to)
}

// DeletePacket drops the head packet of flow q, returning its segment count.
func (cm *ConcurrentQueueManager) DeletePacket(q uint32) (int, error) {
	return cm.e.DeletePacket(q)
}

// Len returns the number of queued segments on flow q.
func (cm *ConcurrentQueueManager) Len(q uint32) (int, error) { return cm.e.Len(q) }

// SetFlowLimit caps flow q at limit segments (0 removes the cap). Flows
// outside the configured flow space report ErrUnknownFlow.
func (cm *ConcurrentQueueManager) SetFlowLimit(q uint32, limit int) error {
	return cm.e.SetFlowLimit(q, limit)
}

// FreeSegments returns the shared pool's free population.
func (cm *ConcurrentQueueManager) FreeSegments() int { return cm.e.FreeSegments() }

// DequeueNext serves one packet chosen by the configured egress
// discipline (round-robin unless set otherwise). ok is false when the
// engine holds no packets. Release the data when done.
func (cm *ConcurrentQueueManager) DequeueNext() (DequeuedPacket, bool) {
	return cm.e.DequeueNext()
}

// DequeueNextBatch serves up to max packets chosen by the configured
// egress discipline, rotating the starting shard per call. Buffers are
// pooled; Release each packet's Data when done.
func (cm *ConcurrentQueueManager) DequeueNextBatch(max int) []DequeuedPacket {
	return cm.e.DequeueNextBatch(max)
}

// SetAdmission swaps the admission policy on every shard; safe while
// traffic flows (counters are not reset).
func (cm *ConcurrentQueueManager) SetAdmission(cfg AdmissionConfig) error {
	return cm.e.SetAdmission(cfg)
}

// SetEgress swaps the egress discipline on every shard; safe while
// traffic flows. Per-flow weights survive the switch.
func (cm *ConcurrentQueueManager) SetEgress(cfg EgressConfig) error {
	return cm.e.SetEgress(cfg)
}

// SetWeight sets flow q's egress weight for WRR (packets per visit) and
// DRR (quantum multiplier). Weights must be positive; flows outside the
// configured flow space report ErrUnknownFlow.
func (cm *ConcurrentQueueManager) SetWeight(q uint32, weight int) error {
	return cm.e.SetWeight(q, weight)
}

// NumClasses returns the per-port scheduling class count (1 = flat).
func (cm *ConcurrentQueueManager) NumClasses() int { return cm.e.NumClasses() }

// SetFlowClass moves flow q into a scheduling class (all flows start in
// class 0; see ClassLayer for configuring the class level). A backlogged
// flow moves with its queue and per-flow FIFO order is unaffected. Safe
// while traffic flows.
func (cm *ConcurrentQueueManager) SetFlowClass(q uint32, class int) error {
	return cm.e.SetFlowClass(q, class)
}

// FlowClass returns the scheduling class flow q is currently mapped to.
func (cm *ConcurrentQueueManager) FlowClass(q uint32) (int, error) { return cm.e.FlowClass(q) }

// SetClassWeight sets a class's weight for class-level WRR (packets per
// visit) and DRR (quantum multiplier). Weights must be positive. Safe
// while traffic flows.
func (cm *ConcurrentQueueManager) SetClassWeight(class, weight int) error {
	return cm.e.SetClassWeight(class, weight)
}

// ClassStats returns per-class backlog occupancy and weights.
func (cm *ConcurrentQueueManager) ClassStats() []ClassStat { return cm.e.ClassStats() }

// NumTenants returns the per-port scheduling tenant count (1 = flat).
func (cm *ConcurrentQueueManager) NumTenants() int { return cm.e.NumTenants() }

// SetFlowTenant moves flow q into a scheduling tenant (all flows start in
// tenant 0; see TenantLayer for configuring the tenant level). A
// backlogged flow moves with its queue and per-flow FIFO order is
// unaffected. Safe while traffic flows.
func (cm *ConcurrentQueueManager) SetFlowTenant(q uint32, tenant int) error {
	return cm.e.SetFlowTenant(q, tenant)
}

// FlowTenant returns the scheduling tenant flow q is currently mapped to.
func (cm *ConcurrentQueueManager) FlowTenant(q uint32) (int, error) { return cm.e.FlowTenant(q) }

// SetTenantWeight sets a tenant's weight for tenant-level WRR (packets
// per visit) and DRR (quantum multiplier). Weights must be positive. Safe
// while traffic flows.
func (cm *ConcurrentQueueManager) SetTenantWeight(tenant, weight int) error {
	return cm.e.SetTenantWeight(tenant, weight)
}

// TenantStats returns per-tenant backlog occupancy and weights.
func (cm *ConcurrentQueueManager) TenantStats() []TenantStat { return cm.e.TenantStats() }

// NumPorts returns the configured output-port count.
func (cm *ConcurrentQueueManager) NumPorts() int { return cm.e.NumPorts() }

// Serve registers sink as port's transmitter and hands the port to its
// home shard's pacer: push-mode delivery — the pacer picks packets via
// the configured class and flow disciplines, paces them against the
// port's token-bucket shaper on a timing wheel, and calls sink.Transmit
// (which may block for backpressure) until the manager closes or sink
// returns an error. Serving any number of ports costs one goroutine per
// shard, not one per port; a Transmit always runs on the port's home
// pacer goroutine, never concurrently with itself. Close waits for the
// pacers, so a Sink must not block forever.
func (cm *ConcurrentQueueManager) Serve(port int, sink Sink) error {
	return cm.e.Serve(port, sink)
}

// SetFlowPort moves flow q onto port (all flows start on port 0); a
// backlogged flow moves with its queue. Safe while traffic flows.
func (cm *ConcurrentQueueManager) SetFlowPort(q uint32, port int) error {
	return cm.e.SetFlowPort(q, port)
}

// FlowPort returns the port flow q is currently mapped to.
func (cm *ConcurrentQueueManager) FlowPort(q uint32) (int, error) { return cm.e.FlowPort(q) }

// SetPortRate reshapes port at runtime (rate 0 removes shaping).
func (cm *ConcurrentQueueManager) SetPortRate(port int, cfg ShaperConfig) error {
	return cm.e.SetPortRate(port, cfg)
}

// Pause stops port's transmission — its worker parks and the backlog
// holds — modeling link-level flow control. Idempotent.
func (cm *ConcurrentQueueManager) Pause(port int) error { return cm.e.Pause(port) }

// Resume reverses Pause. Idempotent.
func (cm *ConcurrentQueueManager) Resume(port int) error { return cm.e.Resume(port) }

// PortStats returns per-port transmit counters and shaper occupancy.
func (cm *ConcurrentQueueManager) PortStats() []PortStat { return cm.e.PortStats() }

// ActiveFlows returns the number of flows holding queued segments.
func (cm *ConcurrentQueueManager) ActiveFlows() int { return cm.e.ActiveFlows() }

// Stats returns cumulative traffic counters and occupancy across shards.
func (cm *ConcurrentQueueManager) Stats() EngineStats { return cm.e.Stats() }

// CheckInvariants validates every shard's pointer structures and global
// segment conservation (for tests/debugging; only a consistent global
// check when no other goroutine is operating on the manager).
func (cm *ConcurrentQueueManager) CheckInvariants() error { return cm.e.CheckInvariants() }
