package npqm

import "npqm/internal/engine"

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
// Every call locks the owning shard, operates, returns. Start adds the
// software rendering of the paper's command FIFOs for the one call that
// need not wait its turn: EnqueueAsync then posts its packet into a
// bounded ring per shard and returns, and whoever locks the shard next
// executes the posted enqueues before its own work, so a goroutine's
// blocking calls always see its own earlier posts. Outcomes of posted
// enqueues are reported through Stats counters.
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
//
// # One of each
//
// The surface has one way to do each thing. Push delivery is view-only
// (ServeViews; a sink that wants contiguous bytes calls d.View.AppendTo).
// One reader per subject: Flow(flow) returns a flow's port, tenant, class,
// weight, segment cap and occupancy together; Config() returns the engine's
// shape (shards, flows, segments, ports, tier units); Stats and its
// per-shard, -port, -class and -tenant slices return everything that moves
// (Stats().ActiveFlows, PortStats()[p].Paused, ...). NewConcurrentEngine is
// the one constructor. The picked pull entry points come in copy and view
// forms because each wins its own benchmark cell; the per-flow batch
// (DequeueBatch) is copy only, and a view consumer naming its flows calls
// DequeuePacketView per flow. See DESIGN.md, "The engine's surface: one of
// each".
//
// The method set is the embedded engine's, documented there;
// testdata/api.golden pins it.
type ConcurrentQueueManager struct{ *engine.Engine }

// Sentinel errors of the concurrent engine, re-exported for errors.Is.
var (
	// ErrClosed is returned by every datapath call after Close.
	ErrClosed = engine.ErrClosed
	// ErrUnknownFlow is returned by SetFlowLimit and SetWeight for flow
	// IDs outside the configured flow space.
	ErrUnknownFlow = engine.ErrUnknownFlow
)

// PacketEnqueue is one packet of an EnqueueBatch call.
type PacketEnqueue = engine.EnqueueReq

// EngineStats is the aggregate cross-shard statistics snapshot.
type EngineStats = engine.Stats
