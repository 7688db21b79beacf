// Package engine is the concurrent, sharded queue-manager subsystem: N
// queue.Manager shards drawing from one shared segment store, behind a
// goroutine-safe API.
//
// The paper's MMS reaches its 6.1 Gbps by exploiting the independence of
// per-flow state: every command touches one queue's pointers and the shared
// free list, and the hardware pipelines commands because flows do not
// interfere. Software gets the same parallelism by partitioning the flow
// space: flows are hashed onto shards, each shard owns a private Manager,
// and commands for different shards proceed on different cores. Per-flow
// FIFO order is preserved because a flow always maps to the same shard and
// each shard is internally sequential.
//
// One thing realizes that sequencing: the shard's mutex. Every call locks
// the owning shard, operates, and unlocks; whoever holds the mutex is the
// shard's manager for that long. After Start each shard also has a bounded
// MPSC command ring, for the one operation that need not wait its turn:
// EnqueueAsync posts {flow, data} — exactly as the paper's processing
// elements post into the MMS command FIFOs — and returns, and the next
// goroutine to take the shard's mutex executes what was posted before its
// own work. Outcomes of posted enqueues are reported through Stats counters.
// See ring.go.
//
// Segment memory is not partitioned — exactly as in the
// paper, where all per-flow queues allocate 64-byte segments from one data
// memory. Every shard allocates from a single segstore.Store through a
// per-shard magazine cache, so shared-buffer admission policies are honest:
// tail-drop, LQD and RED all consult pool-wide occupancy, LQD evicts the
// globally longest queue, and the competitive guarantees stated for one
// global buffer apply. Cross-shard MovePacket is pure pointer relinking on
// the shared slab — no copy, no allocation.
package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/sched"
	"npqm/internal/segstore"
)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 8

// DefaultRingCapacity is the per-shard command-ring capacity used when
// Config.RingCapacity is zero.
const DefaultRingCapacity = 1024

// ErrAdmissionDrop is returned by the enqueue paths when the configured
// admission policy refuses the arrival. The drop is counted in
// Stats.DroppedPackets/DroppedSegments; it is the policy working as
// intended, not a caller error.
var ErrAdmissionDrop = errors.New("engine: packet dropped by admission policy")

// ErrClosed is returned by every datapath call after Close.
var ErrClosed = errors.New("engine: closed")

// ErrUnknownFlow is returned by SetFlowLimit and SetWeight when the flow ID
// lies outside the configured flow space. Like ErrAdmissionDrop it is a
// bare sentinel — classify with errors.Is; it never allocates.
var ErrUnknownFlow = errors.New("engine: unknown flow")

// maxEvictAttempts scales the retry budget of an LQD arrival (see relief):
// under heavy contention another shard can consume the freed space between
// the eviction and the retry; with the budget spent the arrival is refused.
const maxEvictAttempts = 8

// Reassembly buffers are pooled in three size classes, each as a pointer to
// a fixed array: a pointer fills an interface word without boxing, so a
// delivered packet costs one pool Get and one pool Put and no allocation.
// The smallest class holds minimum-size packets, the middle one a 1500-byte
// Ethernet frame; a packet past maxPooledBufBytes (one giant reassembly)
// gets an exact buffer that ReleaseBuffer drops instead of pinning forever.
const (
	smallBufSegs      = 4
	mtuBufSegs        = 24
	maxPooledBufSegs  = 64
	maxPooledBufBytes = maxPooledBufSegs * queue.SegmentBytes
)

type (
	smallBuf [smallBufSegs * queue.SegmentBytes]byte
	mtuBuf   [mtuBufSegs * queue.SegmentBytes]byte
	maxBuf   [maxPooledBufBytes]byte
)

// Lifecycle states. The word says only whether the command rings exist and
// whether the engine is closed — never how to enter a shard, which is the
// mutex in every state. Transitions are one-way, serialized by lifeMu.
const (
	stateNew     int32 = iota // no rings yet: EnqueueAsync enqueues on the spot
	stateStarted              // rings exist: EnqueueAsync posts
	stateClosed
)

// Config sizes an Engine.
type Config struct {
	// Shards is the number of independent queue.Manager shards. It is
	// rounded up to a power of two; 0 means DefaultShards.
	Shards int
	// NumFlows is the total flow-ID space (0 means queue.DefaultNumQueues,
	// 32K). The hash decides which shard owns which flow, and each shard's
	// queue table holds only the flows it owns.
	NumFlows int
	// NumSegments is the shared segment pool (required, > 0). All shards
	// allocate from this one pool through per-shard magazine caches, so a
	// single hot flow can consume (nearly) all of it.
	NumSegments int
	// StoreData is ignored: payloads are always stored.
	//
	// Deprecated: bench shim.
	StoreData bool
	// Admission selects the shared-buffer admission policy. The zero value
	// (policy.KindNone) admits everything the pool can hold. Each shard
	// gets a private policy instance consulted inside the shard's critical
	// section; all instances see pool-wide occupancy, so thresholds are
	// fractions of the whole buffer and LQD evicts the globally longest
	// queue.
	Admission policy.Config
	// Egress parameterizes the integrated egress scheduler used by
	// DequeueNextBatch. The zero value is round-robin over active flows;
	// EgressConfig.Levels adds tenant/class scheduling levels above them.
	Egress policy.EgressConfig
	// NumPorts is the output-port count (0 means 1; at most MaxPorts).
	// Every flow maps to exactly one port — all flows start on port 0,
	// reassignable at runtime with SetFlowPort — and each port is an
	// independent transmit resource: its own scheduling unit per shard,
	// its own shaper, and (via ServeViews) its own push-mode service.
	NumPorts int
	// PortRate is the token-bucket shaper installed on every port at
	// construction (the zero value is unshaped). Individual ports can be
	// reshaped at runtime with SetPortRate.
	PortRate policy.ShaperConfig
	// RingCapacity is the per-shard command-ring depth (0 means
	// DefaultRingCapacity; rounded up to a power of two). A full ring
	// applies backpressure to EnqueueAsync.
	RingCapacity int
	// ResidenceSample enables residence-time sampling: every Nth packet
	// enqueued on a shard is stamped, and its enqueue→dequeue time lands
	// in the Stats residence histogram. 0 disables sampling (no memory or
	// hot-path cost).
	ResidenceSample int
}

// hotPad separates cross-thread hot words inside engine structs (and from
// their neighbours). Two cache lines, matching internal/ring: adjacent-line
// prefetchers pair 64-byte lines, so 64-byte spacing still false-shares.
// layout_test.go pins the distances.
const hotPad = 128

// shard pairs one single-threaded Manager with its synchronization and
// local counters. mu guards everything below it down to the accounting
// block, in every lifecycle state (see lock). Shards are allocated
// individually (the Engine holds pointers), so their hot state lives on
// distinct cache lines.
type shard struct {
	mu sync.Mutex
	m  *queue.Manager

	// cache is m's segment source: the shard publishes its free-count
	// mirror (see publish) and relief reads it from other shards.
	cache *segstore.Cache

	// ring is the shard's command ring and cmds the buffer drains pop it
	// into, both installed once by Start (nil before). Producers push to
	// the ring without mu; only mu's holder pops.
	ring *cmdRing
	cmds []command

	// Counters are the shard's live books: joined and left write the
	// traffic counters, arrive's exits the fates of refused arrivals,
	// noteCopied the copy charge.
	Counters

	// Admission policy: admKind says which (KindNone = accept all), adm is
	// its instance — nil for tail-drop, whose decision is two integer
	// compares, against the pool and against admLimit, run inline (admit),
	// which keeps the hot enqueue path within the no-policy budget. admLimit
	// is the tail-drop per-queue cap and 0 whenever there is none: another
	// policy, or tail-drop uncapped.
	adm      policy.Admission
	admKind  policy.Kind
	admLimit int

	// Egress state: one scheduling unit (a sched.Stack over the
	// configured tenant/class levels plus the per-unit flow lists) per
	// output port, plus the shard-wide discipline parameters (see
	// egress.go). flows, links and ports alias engine-wide slices: flow
	// entries are only touched inside the owning shard's critical
	// section, ports is immutable after New.
	ps          []portSched
	shared      int    // drains left that issue prefetch hints (see lockContended)
	activeFlows int    // total active flows across all ports
	portCursor  uint32 // rotating port for anyPort picks
	flows       []flowState
	links       []flowLinks
	ports       []*port
	eg          egressState

	// flowOf maps m's rows back to flows: the shard's own flows in flow-ID
	// order, flowOf[flows[f].row] == f (see row).
	flowOf []uint32

	// res samples packet residence times (nil when disabled).
	res *residence

	// allocBuf is the engine's getBuf, bound once so that take hands the
	// manager its buffer source without allocating a closure per dequeue.
	allocBuf func(segs int) []byte

	// Worker accounting, written by the shard's worker outside the
	// critical section and read by ShardStats from any goroutine. Padded so
	// the accounting stores cannot bounce the lines holding the mutex or
	// the plain counters above, and so the trailing word does not share
	// with whatever follows the shard allocation.
	_       [hotPad]byte
	wBusyNs atomic.Int64 // ns the worker spent in its passes through the lock
	wIdleNs atomic.Int64 // ns the worker spent waiting for the ring to hold something
	_       [hotPad]byte
}

// Engine is the concurrent sharded queue manager. All methods are safe for
// concurrent use by multiple goroutines.
type Engine struct {
	cfg    Config
	shift  uint // 32 - log2(shards): top hash bits select the shard
	store  *segstore.Store
	shards []*shard
	clk    clock // the one time base; see clock.go

	// Transmit side: one port object per output port, the one pacer that
	// serves them all (its goroutine starts lazily on the first
	// ServeViews), a stop channel closed exactly once on Close to halt it,
	// and its WaitGroup. flows and links are the engine-wide dense
	// scheduler state, one entry each per flow, owned by the flow's shard.
	ports     []*port
	pacer     *pacer
	flows     []flowState
	links     []flowLinks
	tierUnits [numTiers]int32 // fixed unit counts per tier (tenant, class); 1 = flat
	portStop  chan struct{}
	portWG    sync.WaitGroup

	// state is the lifecycle word (stateNew → stateStarted → stateClosed);
	// lifeMu serializes the transitions, workers tracks the shard workers.
	state   atomic.Int32
	lifeMu  sync.Mutex
	workers sync.WaitGroup

	egCursor atomic.Uint32 // rotating start shard for DequeueNextBatch

	bufs       [3]sync.Pool // reassembly buffers: *smallBuf, *mtuBuf, *maxBuf
	bucketPool sync.Pool    // per-shard index buckets for the batch paths
}

// New builds an Engine: one shared segment store, one queue manager per
// shard drawing from it through a magazine cache. Call Start to give
// EnqueueAsync its command rings.
func New(cfg Config) (*Engine, error) { return newWithClock(cfg, newWallClock()) }

// newWithClock is New on a given time base; tests pass one they step.
func newWithClock(cfg Config, clk clock) (*Engine, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("engine: negative Shards %d", cfg.Shards)
	}
	if n := cfg.Shards; n&(n-1) != 0 {
		cfg.Shards = 1 << bits.Len(uint(n))
	}
	if cfg.NumFlows == 0 {
		cfg.NumFlows = queue.DefaultNumQueues
	}
	if cfg.NumFlows < 0 {
		return nil, fmt.Errorf("engine: negative NumFlows %d", cfg.NumFlows)
	}
	if cfg.NumSegments <= 0 {
		return nil, fmt.Errorf("engine: NumSegments must be positive, got %d", cfg.NumSegments)
	}
	if cfg.RingCapacity < 0 {
		return nil, fmt.Errorf("engine: negative RingCapacity %d", cfg.RingCapacity)
	}
	if cfg.RingCapacity == 0 {
		cfg.RingCapacity = DefaultRingCapacity
	}
	if cfg.ResidenceSample < 0 {
		return nil, fmt.Errorf("engine: negative ResidenceSample %d", cfg.ResidenceSample)
	}
	if cfg.NumPorts == 0 {
		cfg.NumPorts = 1
	}
	if cfg.NumPorts < 0 || cfg.NumPorts > MaxPorts {
		return nil, fmt.Errorf("engine: NumPorts %d out of range [1, %d]", cfg.NumPorts, MaxPorts)
	}
	if err := cfg.PortRate.Validate(); err != nil {
		return nil, err
	}
	// cfg.Admission is validated by the SetAdmission call below;
	// cfg.Egress is validated before the tier resolution further down.
	// Scale the magazine size down for pools small relative to the shard
	// count, so the depot always holds enough magazines that no shard can
	// strand a large fraction of the pool in its cache.
	mag := segstore.MagazineSegments
	if perShard := cfg.NumSegments / (4 * cfg.Shards); perShard < mag {
		mag = perShard
		if mag < 1 {
			mag = 1
		}
	}
	store, err := segstore.New(segstore.Config{NumSegments: cfg.NumSegments, MagazineSize: mag})
	if err != nil {
		return nil, err
	}
	if err := cfg.Egress.Validate(); err != nil {
		return nil, err
	}
	cfg.Egress = cfg.Egress.WithDefaults()
	tierUnits := resolveTierUnits(cfg.Egress)
	e := &Engine{
		cfg:       cfg,
		shift:     uint(32 - bits.TrailingZeros(uint(cfg.Shards))),
		store:     store,
		shards:    make([]*shard, cfg.Shards),
		clk:       clk,
		ports:     make([]*port, cfg.NumPorts),
		flows:     make([]flowState, cfg.NumFlows),
		links:     make([]flowLinks, cfg.NumFlows),
		tierUnits: tierUnits,
		portStop:  make(chan struct{}),
	}
	owned := make([]int, cfg.Shards)
	for f := range e.links {
		e.links[f] = flowLinks{Next: sched.None, Prev: sched.None}
		owned[e.shardIndex(uint32(f))]++
	}
	e.pacer = &pacer{e: e, wake: make(chan struct{}, 1)}
	for i := range e.ports {
		e.ports[i] = &port{
			idx: i,
			sh:  newShaper(cfg.PortRate, clk.now()),
			// All of a port's service — every shard's scheduling unit — runs
			// on the engine's one pacer goroutine, so no two SendView calls
			// overlap, on one port or across ports.
			pc: e.pacer,
		}
		e.ports[i].txLastNs.Store(noDeparture)
	}
	allocBuf := e.getBuf
	for i := range e.shards {
		// A shard's queue table has one row per flow it owns — at least
		// one, since NumQueues 0 asks the manager for its default.
		rows := max(owned[i], 1)
		cache := store.NewCache()
		m, err := queue.NewWithStore(queue.Config{NumQueues: rows}, cache)
		if err != nil {
			return nil, err
		}
		// Per-port level stacks are allocated lazily on first activity
		// (see portSched), so a wide port space costs nothing up front.
		s := &shard{
			m:        m,
			cache:    cache,
			allocBuf: allocBuf,
			ps:       make([]portSched, cfg.NumPorts),
			flows:    e.flows,
			links:    e.links,
			ports:    e.ports,
			flowOf:   make([]uint32, 0, owned[i]),
		}
		for t := range numTiers {
			s.eg.tierWeights[t] = make([]int32, tierUnits[t])
		}
		s.eg.levels = buildLevels(tierUnits, &s.eg.tierWeights)
		for p := range s.ps {
			s.ps[p].s = s
		}
		e.shards[i] = s
		if cfg.ResidenceSample > 0 {
			s.res = newResidence(cfg.ResidenceSample, rows, clk)
		}
	}
	// Rows follow flow order inside each shard. The manager's
	// longest-queue heap breaks ties by lowest row, so among equally long
	// queues LQD evicts from the lowest flow ID, whatever the shard count.
	for f := range e.flows {
		s := e.shardOf(uint32(f))
		e.flows[f].row = uint32(len(s.flowOf))
		s.flowOf = append(s.flowOf, uint32(f))
	}
	if err := e.SetAdmission(cfg.Admission); err != nil {
		return nil, err
	}
	if err := e.SetEgress(cfg.Egress); err != nil {
		return nil, err
	}
	return e, nil
}

// closed reports whether Close has begun.
func (e *Engine) closed() bool { return e.state.Load() == stateClosed }

// publish refreshes the shard's free-count mirror — the only place the
// engine does. Invariant: the mirror is exact whenever the shard is outside
// a critical section. Every section therefore ends here (unlock), once per
// section however many packets it moved; and a section publishes before it
// reads pool-wide occupancy itself (relief, pushOutElected; the manager's
// FreeSegments does its own), so on one goroutine every decision sees exact
// counts. Other shards see a section's effect when it ends: a drain's frees
// late, which is the conservative direction, and what holding the shard
// already implied.
func (s *shard) publish() { s.cache.Publish() }

// unlock ends a critical section (see lock, in ring.go).
func (s *shard) unlock() {
	s.publish()
	s.mu.Unlock()
}

// run executes fn inside shard s's critical section, exactly once, in every
// lifecycle state — it is how the control plane and the observation surface
// (which outlives Close) enter a shard; fn captures its own results. The
// section ends by defer: a panic in fn unwinds with the shard released, so
// one bad call does not wedge every flow that hashes there.
func (e *Engine) run(s *shard, fn func()) {
	e.lock(s)
	defer s.unlock()
	fn()
}

// SetAdmission replaces the admission policy on every shard. Each shard
// gets a private instance (RED seeds are derived per shard) swapped in
// inside the shard's critical section, so reconfiguration is safe while
// traffic flows. Counters are not reset. Longest-queue tracking is enabled
// exactly when the policy can return a push-out verdict.
func (e *Engine) SetAdmission(cfg policy.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	track := cfg.Kind == policy.KindLQD
	for i, s := range e.shards {
		shardCfg := cfg
		if shardCfg.Seed == 0 {
			shardCfg.Seed = 1
		}
		shardCfg.Seed += uint64(i) * 0x9e3779b97f4a7c15
		adm, err := policy.New(shardCfg)
		if err != nil {
			return err
		}
		e.run(s, func() {
			s.adm = adm
			s.admKind = cfg.Kind
			s.admLimit = 0
			if cfg.Kind == policy.KindTailDrop {
				s.admLimit = cfg.Limit
			}
			s.m.SetLongestTracking(track)
		})
	}
	return nil
}

// Config returns the configuration the engine was built from, as New
// normalized it: Shards rounded up to a power of two, every zero default
// filled in (NumFlows, NumPorts, RingCapacity, the egress weights and
// quanta), and each tier's unit count readable as Egress.Units(tier). It is
// the shape of the engine, fixed for its lifetime; what the runtime setters
// change (SetAdmission, SetEgress, SetPortRate, weights) shows in the Stats
// family, not here.
func (e *Engine) Config() Config {
	cfg := e.cfg
	cfg.Egress.Levels = slices.Clone(cfg.Egress.Levels)
	return cfg
}

// shardIndex returns the shard index owning flow — Fibonacci hashing on the
// flow ID, taking the top bits of the product, which mixes well even for
// the sequential flow IDs traffic generators tend to produce.
func (e *Engine) shardIndex(flow uint32) int {
	return int((flow * 0x9E3779B1) >> e.shift)
}

func (e *Engine) shardOf(flow uint32) *shard {
	return e.shards[e.shardIndex(flow)]
}

// inSpace reports whether flow lies inside the configured flow space. Every
// entry point asks before it looks the flow's row up.
func (e *Engine) inSpace(flow uint32) bool { return int64(flow) < int64(e.cfg.NumFlows) }

// badFlow is the error for a flow outside the flow space on the paths that
// reach a queue manager: the manager's ErrBadQueue, worded as the manager
// words it.
func (e *Engine) badFlow(flow uint32) error {
	return fmt.Errorf("%w: %d (have %d)", queue.ErrBadQueue, flow, e.cfg.NumFlows)
}

// row is flow's row in s's queue table; flow is in the flow space and
// owned by s. Every call that hands a flow to s.m goes through here.
func (s *shard) row(flow uint32) queue.QueueID { return queue.QueueID(s.flows[flow].row) }

// named restates a manager error in the caller's numbering. The manager
// names a queue "queue <row>", a row of s's table, which means nothing to
// the caller; the message is rebuilt around the flow that row holds and
// keeps its sentinel for errors.Is. An error that names no queue — a bare
// sentinel above all, which an overloaded caller meets millions of times —
// comes back as it is, unallocated.
func (s *shard) named(err error) error {
	inner := errors.Unwrap(err)
	if inner == nil {
		return err
	}
	rest, ok := strings.CutPrefix(err.Error(), inner.Error()+": queue ")
	n := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
	if n < 0 {
		n = len(rest)
	}
	row, perr := strconv.Atoi(rest[:n])
	if !ok || perr != nil || row >= len(s.flowOf) {
		return err
	}
	return fmt.Errorf("%w: queue %d%s", inner, s.flowOf[row], rest[n:])
}

// EnqueuePacket segments data onto flow, returning the segment count. When
// an admission policy is configured it is consulted first; a refusal
// returns ErrAdmissionDrop, and under LQD the arrival may instead evict
// packets from the globally longest queue — on any shard — to make room.
// The call returns once the packet's fate is settled (use EnqueueAsync to
// fire and forget).
func (e *Engine) EnqueuePacket(flow uint32, data []byte) (int, error) {
	s := e.shardOf(flow)
	if !e.enter(s) {
		return 0, ErrClosed
	}
	n, held, err := e.arrive(s, flow, data, len(data), nil, false)
	if held {
		s.unlock()
	}
	return n, err
}

// segsFor is the segment count of an n-byte packet.
func segsFor(n int) int { return (n + queue.SegmentBytes - 1) / queue.SegmentBytes }

// arrive is the one arrival routine — admission, the manager call, push-out
// and the books — behind EnqueuePacket, EnqueueBatch's bucket walk,
// EnqueueAsync before Start, the drain's posted enqueues (stay) and, with
// w != nil, ReservePacket (open a size-byte reservation in *w instead of
// copying data). The caller has entered s.
//
// Each round asks admit for a verdict and, unless that is PushOut, the
// manager for the segments. A shortage — a PushOut verdict or a dry manager
// — asks relief which shard to visit before the next round. An elected
// victim on s is pushed out in place: the freed segments land in the cache
// the arrival allocates from, with no flush and no unlock. Any other shard
// — a remote victim, or one whose cache strands free segments — is visited
// with s released, because shards are never entered nested, and admission
// re-runs on return. held is false when the engine closed in between: s is
// not held, nothing was enqueued, and err is ErrClosed.
//
// stay confines the arrival to s: a drain cannot leave its shard — later
// commands of the same flow may already be popped behind this one — so
// under LQD a posted arrival evicts from its own shard's longest queue, one
// packet a round for at most maxEvictAttempts rounds, whether or not that
// queue is the global longest and whether or not other shards' caches
// strand free segments (see relief).
//
// The fate is counted once, where the loop exits: enqueued (joined),
// dropped by the policy (noteDrop) — which an arrival owed an eviction that
// made no room is — or refused for want of room (noteRefused). A round that
// is retried counts nothing. A flow outside the flow space is the caller's
// error and meets no fate.
func (e *Engine) arrive(s *shard, flow uint32, data []byte, size int, w *queue.PacketWriter, stay bool) (n int, held bool, err error) {
	if !e.inSpace(flow) {
		return 0, true, e.badFlow(flow)
	}
	q, need := s.row(flow), segsFor(size)
	for round := 0; ; round++ {
		verdict := policy.Accept
		if s.admKind != policy.KindNone && size > 0 {
			verdict = s.admit(flow, need)
		}
		switch verdict {
		case policy.Drop:
			return 0, true, s.noteDrop(need)
		case policy.Accept:
			if w != nil {
				*w, err = s.m.ReservePacket(q, size) // joins at Commit
			} else if n, err = s.m.EnqueuePacket(q, data); err == nil {
				s.noteCopied(size)
				s.joined(flow, n, arrived)
			}
			if err == nil {
				return n, true, nil
			}
			if !errors.Is(err, queue.ErrNoFreeSegments) {
				return 0, true, s.noteRefused(s.named(err))
			}
		}
		// dry: the manager, not the policy, found the pool short — which a
		// staying LQD arrival, unable to go and fetch the room the verdict
		// saw, takes as the PushOut verdict it is owed.
		dry := verdict == policy.Accept && !(stay && s.admKind == policy.KindLQD)
		s.publish() // relief reads the pool-wide count from inside s
		switch v := e.relief(s, need, dry, round, stay); {
		case v == nil && dry:
			return 0, true, s.noteRefused(err)
		case v == nil:
			return 0, true, s.noteDrop(need)
		case stay:
			s.evictLongest()
		case v == s:
			e.pushOutElected(s, need)
		default:
			s.unlock()
			e.relieve(v, need)
			if !e.enter(s) {
				return 0, false, ErrClosed
			}
		}
	}
}

// relieve visits v on behalf of an arrival of need segments homed on
// another shard: evict while v is the elected victim, and hand whatever is
// free here — just evicted or merely cached — to the depot the arrival can
// reach. A closed engine is left as it is; the arrival finds out on its way
// back into its own shard.
func (e *Engine) relieve(v *shard, need int) {
	if !e.enter(v) {
		return
	}
	e.pushOutElected(v, need)
	v.cache.Flush()
	v.unlock()
}

// relief names the shard an arrival of need segments that met a shortage on
// s must visit before another round can succeed. The manager ran dry
// although the pool holds need: a shard whose cache strands free segments.
// The pool is short — by the admission verdict (not dry), or because a
// concurrent arrival took the space between the verdict and the manager
// call — the elected LQD victim, which exists only while LQD is configured.
// nil means the shortage is final, or the retry budget — one round per
// evicted packet and per flushed cache, times maxEvictAttempts for lost
// races — is spent. An arrival that must stay has s or nothing: when it is
// owed an eviction, while s has a queue to evict from, for maxEvictAttempts
// rounds.
func (e *Engine) relief(s *shard, need int, dry bool, round int, stay bool) *shard {
	switch {
	case stay:
		if !dry && round < maxEvictAttempts && s.m.LongestLen() > 0 {
			return s
		}
	case round >= maxEvictAttempts*(need+len(e.shards)):
	case dry && e.store.Free() >= need:
		for _, t := range e.shards {
			if t != s && t.cache.Cached() > 0 {
				return t
			}
		}
	default:
		return e.electVictim()
	}
	return nil
}

// electVictim returns the shard holding the globally longest queue, or nil
// when every queue is empty: the first shard in index order whose published
// longest-queue length (queue.Manager.LongestLen, one padded atomic word
// per shard) is strictly greatest; inside the shard the heap breaks ties by
// lowest row, which is lowest flow ID (see New). No shard is entered. The
// mirrors are exact on one goroutine and a hint under concurrency, where
// peek-then-evict is racy whatever the peek costs; pushOutElected re-elects
// inside the victim.
func (e *Engine) electVictim() *shard {
	var victim *shard
	best := 0
	for _, s := range e.shards {
		if l := s.m.LongestLen(); l > best {
			best, victim = l, s
		}
	}
	return victim
}

// pushOutElected is the eviction half of LQD, inside v's critical section:
// push out head packets of v's longest queue while the shared pool holds
// fewer than need free segments and v is still the elected victim.
func (e *Engine) pushOutElected(v *shard, need int) {
	for {
		v.publish() // count what this section has freed so far
		if e.store.Free() >= need || e.electVictim() != v || !v.evictLongest() {
			return
		}
	}
}

// evictLongest pushes out the head packet of the shard's longest queue —
// the one place a packet is pushed out — reporting false when every queue
// is empty.
func (s *shard) evictLongest() bool {
	q, segs, err := s.m.PushOutLongest()
	if err == nil {
		s.left(s.flowOf[q], segs, pushedOut)
	}
	return err == nil
}

// cause says how a packet joined a queue or why it left one.
type cause uint8

const (
	arrived   cause = iota // joined: enqueued, or a reservation committed
	moved                  // joined or left: MovePacket relinked it, the engine's totals do not move
	served                 // left: dequeued, as a buffer or a view
	deleted                // left: DeletePacket, which the books count as a dequeue
	pushedOut              // left: evicted by LQD
)

// joined settles the books for a packet of segs segments that has just been
// linked onto flow's queue, inside the shard's critical section. With left
// it is the only writer of the traffic counters, the active lists (rehome
// apart) and the residence sampler, so the conservation law — enqueued =
// dequeued + pushed-out + resident — is these two switches. A moved packet advances the flow's residence sequence
// unsampled.
func (s *shard) joined(flow uint32, segs int, how cause) {
	if how == arrived {
		s.EnqueuedPackets++
		s.EnqueuedSegments += uint64(segs)
	}
	s.setActive(flow)
	switch {
	case s.res == nil:
	case how == arrived:
		s.res.noteEnqueue(s.row(flow))
	default:
		s.res.noteTransfer(s.row(flow))
	}
}

// left settles the books for the packet of segs segments that has just been
// unlinked from the head of flow's queue (see joined). The flow stays on its
// active list exactly while it has backlog; only a served packet records a
// residence sample, the others retire the sequence number.
func (s *shard) left(flow uint32, segs int, why cause) {
	switch why {
	case served, deleted:
		s.DequeuedPackets++
		s.DequeuedSegments += uint64(segs)
	case pushedOut:
		s.PushedOutPackets++
		s.PushedOutSegments += uint64(segs)
	}
	if n, _ := s.m.Len(s.row(flow)); n > 0 {
		s.setActive(flow)
	} else {
		s.clearActive(flow)
	}
	if s.res != nil {
		s.res.noteRemove(s.row(flow), why == served)
	}
}

// noteDrop counts an arrival of need segments refused by admission, inside
// the shard's critical section. It returns the bare ErrAdmissionDrop
// sentinel: overloaded callers see millions of drops, so the error must not
// allocate.
func (s *shard) noteDrop(need int) error {
	s.DroppedPackets++
	s.DroppedSegments += uint64(need)
	return ErrAdmissionDrop
}

// noteRefused counts the manager's final refusal err as rejected when it was
// for want of room — the pool ran dry or the flow is at its cap — and hands
// err back. A malformed call (an empty packet, a flow outside the flow
// space) is the caller's error, not buffer pressure, and is not counted.
func (s *shard) noteRefused(err error) error {
	if errors.Is(err, queue.ErrNoFreeSegments) || errors.Is(err, queue.ErrQueueLimit) {
		s.Rejected++
	}
	return err
}

// noteCopied charges n payload bytes to the shard's copy counter, inside
// the shard's critical section. Only the copying datapaths call it — the
// view and write-in-place paths never do, which is how Stats.CopiedBytes
// proves a deployment's copy path has gone quiet.
func (s *shard) noteCopied(n int) { s.CopiedBytes += uint64(n) }

// admit is the admission decision for a packet of need segments arriving on
// flow, inside s's critical section (s.admKind != KindNone). Tail-drop is
// the inline fast path: one pool-wide free-count read (an atomic load per
// cache) and a per-queue cap compare, with no interface dispatch. LQD and
// RED consult s.adm, which sees pool-wide occupancy. A PushOut verdict is
// not executed here: the globally longest queue may live on another shard,
// so arrive elects the victim and evicts.
func (s *shard) admit(flow uint32, need int) policy.Verdict {
	if s.admKind == policy.KindTailDrop {
		if need > s.m.FreeSegments() || s.overTailLimit(flow, need) {
			return policy.Drop
		}
		return policy.Accept
	}
	q := s.row(flow)
	occ, _ := s.m.Occupancy(q)
	if lim, _ := s.m.SegmentLimit(q); lim > 0 && occ.Segments+need > lim {
		// The manager's per-flow cap will refuse this packet no matter
		// what the policy says; pass it through so the caller sees
		// ErrQueueLimit — and, crucially, so a push-out verdict does not
		// evict an innocent victim for an arrival that cannot land.
		return policy.Accept
	}
	// Free() walks every cache's atomic mirror; read it once per decision.
	free := s.m.FreeSegments()
	verdict := s.adm.Admit(flow, need,
		policy.QueueState{Segments: occ.Segments},
		policy.PoolState{Free: free, Capacity: s.m.NumSegments()})
	if verdict == policy.PushOut && free >= need {
		return policy.Accept // the policy is stricter than the pool; no eviction needed
	}
	return verdict
}

// overTailLimit is the tail-drop per-queue rule, the one place it is
// written: need more segments would take flow past the cap. Admission
// applies it to arrivals and MovePacket to the destination of a move. False
// when there is no cap (see admLimit).
func (s *shard) overTailLimit(flow uint32, need int) bool {
	if s.admLimit <= 0 {
		return false
	}
	segs, _ := s.m.Len(s.row(flow))
	return segs+need > s.admLimit
}

// DequeuePacket removes and reassembles the head packet of flow. The
// returned buffer comes from an internal pool; pass it to ReleaseBuffer when
// done to recycle it (keeping it, or not releasing, is safe but allocates
// more).
func (e *Engine) DequeuePacket(flow uint32) ([]byte, error) {
	d, err := e.dequeue(flow, false)
	return d.Data, err
}

// dequeue is the per-flow dequeue behind DequeuePacket and
// DequeuePacketView: one take inside the owning shard's critical section.
func (e *Engine) dequeue(flow uint32, view bool) (d Dequeued, err error) {
	s := e.shardOf(flow)
	if !e.enter(s) {
		return d, ErrClosed
	}
	if e.inSpace(flow) {
		err = s.take(&d, flow, view, unpicked)
	} else {
		err = e.badFlow(flow)
	}
	s.unlock()
	return d, err
}

// unpicked is take's debit for a per-flow dequeue: the caller named the
// flow, the egress discipline did not choose it, so no level is charged.
const unpicked int64 = -1

// take removes flow's head packet into *d (left zero on error), inside s's
// critical section. It is the one place delivery chooses its form — view
// lends the segment chain out of the pool (d.View, nothing copied),
// otherwise the payload is reassembled into a pooled buffer sized to the
// packet (d.Data; no buffer is taken when there is no packet) — and where
// a served packet is charged to the discipline that picked it before left
// settles the books. It fills the caller's record in place: the record is
// 64 bytes, and returning it through take, the single-packet pick and the
// drain loop cost the 64-byte batch workload about 5%.
//
// debit is pickLocked's flow-level DRR charge (0 for the packet-granular
// disciplines), or unpicked. The picker returns the debit rather than
// pre-deducting so the charge lands if and only if the packet was served —
// and so the bound-exhaustion fallback pays for its packet too, driving
// the deficit negative instead of transmitting for free. The intermediate
// levels are charged the bytes actually served. Both charges precede the
// active-list sync: a flow that drains forfeits only what it did not spend.
func (s *shard) take(d *Dequeued, flow uint32, view bool, debit int64) (err error) {
	var segs int
	*d = Dequeued{Flow: flow}
	if q := s.row(flow); view {
		d.View, err = s.m.DequeuePacketView(q)
		segs, d.Bytes = d.View.Segments(), d.View.Len()
	} else {
		d.Data, segs, err = s.m.DequeuePacketInto(q, s.allocBuf)
		s.noteCopied(len(d.Data))
		d.Bytes = len(d.Data)
	}
	if err != nil {
		*d = Dequeued{}
		return s.named(err)
	}
	if debit > 0 {
		s.SetDeficit(int32(flow), s.Deficit(int32(flow))-debit)
	}
	if debit != unpicked && s.eg.hasLevelDRR {
		s.chargeLevels(flow, d.Bytes)
	}
	s.left(flow, segs, served)
	return nil
}

// ReleaseBuffer returns a reassembly buffer obtained from DequeuePacket,
// DequeueBatch or the copy-mode egress paths to the engine's pool, by its
// capacity: a buffer that is not one of the pooled classes — made by the
// caller, resliced, or the exact buffer of a packet past maxPooledBufBytes
// — is left to the garbage collector. The caller must not use buf
// afterwards. Packet views have their own release surface
// (PacketView.Release), which returns segments rather than buffers.
func (e *Engine) ReleaseBuffer(buf []byte) {
	switch buf = buf[:cap(buf)]; len(buf) {
	case len(smallBuf{}):
		e.bufs[0].Put((*smallBuf)(buf))
	case len(mtuBuf{}):
		e.bufs[1].Put((*mtuBuf)(buf))
	case len(maxBuf{}):
		e.bufs[2].Put((*maxBuf)(buf))
	}
}

// getBuf returns an empty reassembly buffer for a packet of segs segments
// from the smallest class that holds it, so the copy-out never regrows it.
func (e *Engine) getBuf(segs int) []byte {
	switch {
	case segs <= smallBufSegs:
		if v := e.bufs[0].Get(); v != nil {
			return v.(*smallBuf)[:0]
		}
		return new(smallBuf)[:0]
	case segs <= mtuBufSegs:
		if v := e.bufs[1].Get(); v != nil {
			return v.(*mtuBuf)[:0]
		}
		return new(mtuBuf)[:0]
	case segs <= maxPooledBufSegs:
		if v := e.bufs[2].Get(); v != nil {
			return v.(*maxBuf)[:0]
		}
		return new(maxBuf)[:0]
	}
	return make([]byte, 0, segs*queue.SegmentBytes)
}

// MovePacket relinks the head packet of from onto to — pure pointer surgery
// on the shared slab whether or not the flows share a shard. A move leaves
// the traffic counters untouched (the packet neither entered nor left the
// engine) and allocates nothing: the segments are already resident, so
// pool-pressure admission (LQD push-out, RED) does not apply. Only the
// per-queue caps guard the destination — the tail-drop per-queue limit
// (ErrAdmissionDrop) and the per-flow segment cap (ErrQueueLimit); a
// refused move leaves the packet on its source queue.
func (e *Engine) MovePacket(from, to uint32) (int, error) {
	switch {
	case e.closed():
		return 0, ErrClosed
	case !e.inSpace(from):
		return 0, e.badFlow(from)
	case !e.inSpace(to):
		return 0, e.badFlow(to)
	}
	si, di := e.shardIndex(from), e.shardIndex(to)
	if si == di {
		s := e.shards[si]
		var n int
		var err error
		e.run(s, func() { n, err = s.moveLocal(from, to) })
		return n, err
	}
	src, dst := e.shards[si], e.shards[di]
	var ch queue.PacketChain
	var err error
	e.run(src, func() {
		if ch, err = src.m.UnlinkHeadPacket(src.row(from)); err == nil {
			src.left(from, ch.Segs, moved)
		} else {
			err = src.named(err)
		}
	})
	if err != nil {
		return 0, err
	}
	// The chain is in transit, owned by this goroutine; neither shard can
	// see a half-moved packet. From here the move must complete — run enters
	// a shard even if the engine closes underneath us, so the chain is
	// always relinked somewhere.
	e.run(dst, func() {
		if dst.overTailLimit(to, ch.Segs) {
			err = ErrAdmissionDrop
			return
		}
		if err = dst.m.LinkPacketTail(dst.row(to), ch); err == nil {
			dst.joined(to, ch.Segs, moved)
		} else {
			err = dst.named(err)
		}
	})
	if err != nil {
		// Restore the packet at the head of its source queue. This is
		// pointer relinking that cannot fail, so a refused move is
		// all-or-nothing — the pre-segstore copy path could lose the
		// packet when the rollback enqueue found the source pool refilled,
		// and miscounted the loss as a push-out.
		e.run(src, func() {
			_ = src.m.LinkPacketHead(src.row(from), ch)
			src.joined(from, ch.Segs, moved)
		})
		return 0, err
	}
	return ch.Segs, nil
}

// moveLocal is the same-shard MovePacket body, inside s's critical section.
func (s *shard) moveLocal(from, to uint32) (int, error) {
	qf := s.row(from)
	if from != to && s.admLimit > 0 { // price the packet only where a cap can refuse it
		if _, need, err := s.m.PacketLen(qf); err == nil && s.overTailLimit(to, need) {
			return 0, ErrAdmissionDrop
		}
	}
	n, err := s.m.MovePacket(qf, s.row(to))
	if err != nil {
		return 0, s.named(err)
	}
	if from == to {
		// Same-queue rotation: the head packet went to the tail — unless it
		// is alone there, in which case nothing left and nothing joined.
		if occ, _ := s.m.Occupancy(qf); occ.Packets == 1 {
			return n, nil
		}
	}
	s.left(from, n, moved)
	s.joined(to, n, moved)
	return n, nil
}

// DeletePacket drops the head packet of flow, returning its segment count.
func (e *Engine) DeletePacket(flow uint32) (int, error) {
	switch {
	case e.closed():
		return 0, ErrClosed
	case !e.inSpace(flow):
		return 0, e.badFlow(flow)
	}
	s := e.shardOf(flow)
	var n int
	var err error
	e.run(s, func() {
		if n, err = s.m.DeletePacket(s.row(flow)); err == nil {
			s.left(flow, n, deleted)
		} else {
			err = s.named(err)
		}
	})
	return n, err
}

// Len returns the queued segment count of flow.
func (e *Engine) Len(flow uint32) (int, error) {
	if !e.inSpace(flow) {
		return 0, e.badFlow(flow)
	}
	s := e.shardOf(flow)
	var n int
	e.run(s, func() { n, _ = s.m.Len(s.row(flow)) })
	return n, nil
}

// SetFlowLimit caps flow at limit segments (0 removes the cap). Unknown
// flows (outside the configured flow space) report ErrUnknownFlow.
func (e *Engine) SetFlowLimit(flow uint32, limit int) error {
	if !e.inSpace(flow) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var err error
	e.run(s, func() { err = s.m.SetSegmentLimit(s.row(flow), limit) })
	return err
}

// FreeSegments returns the shared pool's free population (depot plus every
// shard's magazine cache). Lock-free; a shard's share is refreshed when its
// critical section ends (see shard.publish), so against a shard in the
// middle of a batch the value lags by that batch.
func (e *Engine) FreeSegments() int { return e.store.Free() }
