package engine

// The integrated egress scheduler — an N-level hierarchy. Each shard
// keeps one scheduling unit per output port; a unit is a sched.Stack
// composing one sched.Level per configured tier (tenant, class) above
// the flow level, so the same code path runs the flat, two-level and
// three-level configurations. SetFlowTenant/SetFlowClass group flows
// into the tiers' units; all levels run the same four disciplines (see
// policy.EgressKind) through one implementation, sched.Level, so
// tenant-level WRR cannot drift from class- or flow-level WRR.
//
// Scheduler state is dense and index-based: every flow owns one
// flowState entry (port, tenant, class, weight, DRR deficit, queue row)
// and one flowLinks entry (its intrusive active-list links) in two
// engine-wide tables — no per-flow maps, no per-port bitmaps — so a
// million flows cost a million small structs rather than ports×flows bits,
// and activation/deactivation/picking are O(1) list splices.
// Intermediate nodes (a tenant, a (tenant, class) pair) are dense
// composite indices into per-level slices inside the Stack. Entries are
// only ever touched inside the owning shard's critical section; the
// tables are engine-wide only so the facade can size them once.
//
// All egress state lives per shard under the shard lock: a flow always
// hashes to the same shard, so per-flow cursor/credit/deficit state
// never migrates. The discipline arbitrates among the flows of one
// (shard, port) pair; cross-shard fairness comes from rotating the
// shard a batch (or the pacer's scan) starts on, and ports are
// independent transmit resources by construction.

import (
	"fmt"
	"unsafe"

	"npqm/internal/policy"
	"npqm/internal/prefetch"
	"npqm/internal/queue"
	"npqm/internal/sched"
)

// anyPort is the pick-target meaning "serve whichever port has traffic"
// — the legacy pull API (DequeueNext[Batch]) serves all ports, rotating.
const anyPort = -1

// numTiers sizes the per-tier arrays, indexed by policy.Tier (outermost
// first). A tier with one unit is flat — it contributes no scheduling
// level — so the active levels of an engine are the tiers whose unit count
// exceeds one.
const numTiers = policy.NumTiers

// Dequeued is one served packet: the flow it was queued on, its payload
// byte count, and the payload in the form the caller asked for — exactly
// one of Data and View is set. Copy delivery fills Data with the
// reassembled payload (from the engine's buffer pool — ReleaseBuffer it
// when done). View delivery fills View with the packet's segment chain,
// read in place; Bytes then comes from the queue accounting.
type Dequeued struct {
	Flow  uint32
	Bytes int
	Data  []byte
	View  PacketView
}

// DequeuedView is Dequeued under the name the view entry points use.
type DequeuedView = Dequeued

// flowState is one flow's dense scheduler configuration: its home port
// and its unit in every tier (tenant, class), its WRR/DRR weight, its DRR
// deficit, and its row in the owning shard's queue table. One entry per
// flow, engine-wide, touched only inside the owning shard's critical
// section. 32 bytes, two to a cache line and never straddling one
// (layout_test.go pins the size). Its list links live apart, in flowLinks:
// every activation and pick writes them, while this entry is read-mostly
// (only a DRR pick writes the deficit), so the core that serves a flow
// and the core that activates it do not take turns owning its
// configuration's line.
type flowState struct {
	port     int32
	unit     [numTiers]int32
	weight   int32  // 0 = discipline default
	defEpoch uint32 // deficit is valid only when this matches eg.epoch
	row      uint32 // fixed at New; see shard.row
	deficit  int64
}

// flowLinks is one flow's place on its innermost active list, indexed like
// flowState. Next == sched.None means the flow is not active (no backlog).
// The shard's table is every port's stack's leaf table (Stack.ShareLeaves),
// so the Levels read and write it directly.
type flowLinks = sched.Link

// portSched is one (shard, port) scheduling unit: a sched.Stack over
// the shard's configured levels, built on the port's first active flow
// — the port space can be large (MaxPorts) while only a few ports ever
// own flows, and an unused port must not cost per-level state on every
// shard. Guarded by the shard's critical section. activeFlows > 0
// implies st.Ready().
type portSched struct {
	s           *shard      // back-pointer for the Hierarchy methods
	st          sched.Stack // the level stack (flat when no tier is active)
	audits      [][]int64   // test-only per-level entitlement (see egressState.audit)
	activeFlows int
}

// levelCfg is one active intermediate level's shard-local
// configuration: which tier it is, its discipline, its unit count
// (mod), and the composite node count of the level (the product of the
// unit counts through it — a node at the class level under 8 tenants ×
// 8 classes is tenant*8+class, one of 64).
type levelCfg struct {
	tier    policy.Tier
	kind    policy.EgressKind
	quantum int64
	mod     int32
	count   int32
	weights []int32 // aliases egressState.tierWeights[tier]; 0 = weight 1
}

// egressState is one shard's scheduler configuration, guarded by the
// shard's critical section. Per-flow state lives in the dense flowState
// table; per-node rotation state lives in the per-port Stack units.
type egressState struct {
	kind          policy.EgressKind // flow-level discipline
	defaultWeight int
	quantum       int // flow-level DRR bytes per weight unit per visit

	// levels are the active intermediate levels, outermost first —
	// built once at construction (the unit counts are fixed);
	// SetEgress replaces kinds, quanta and weights in place.
	levels []levelCfg
	// tierWeights holds every tier's per-unit weights (len = the
	// tier's unit count, ≥ 1), whether or not the tier is active, so
	// SetTierWeight always has a place to write.
	// Active levels alias their tier's slice.
	tierWeights [numTiers][]int32
	// hasLevelDRR caches whether any intermediate level runs DRR, so
	// the per-packet charge check is one bool load.
	hasLevelDRR bool

	// epoch versions the flowState deficits: SetEgress bumps it instead
	// of zeroing a million entries, and stale deficits read as 0.
	epoch uint32

	// audit, when non-nil (tests only), accumulates the net service
	// entitlement granted to each flow — quantum bytes for DRR, visit
	// packets for WRR — with forfeited credit subtracted back out, so a
	// conservation property can hold the pickers to served == granted −
	// outstanding, exactly. auditLevels mirrors it at the intermediate
	// levels (per-port audits slices, allocated with the Stack).
	audit       []int64
	auditLevels bool
}

// --- sched.Entity / sched.Hierarchy implementations ---

// The shard itself is the flow-level Entity: member ids are flow IDs
// indexing the dense flowState table. Pointer-shaped, so the interface
// conversion in the pick paths does not allocate.

func (s *shard) Weight(id int32) int64 {
	if w := s.flows[id].weight; w > 0 {
		return int64(w)
	}
	return int64(s.eg.defaultWeight)
}

func (s *shard) Deficit(id int32) int64 {
	fs := &s.flows[id]
	if fs.defEpoch != s.eg.epoch {
		return 0
	}
	return fs.deficit
}

func (s *shard) SetDeficit(id int32, d int64) {
	fs := &s.flows[id]
	fs.defEpoch = s.eg.epoch
	fs.deficit = d
}

func (s *shard) HeadBytes(id int32) (int64, bool) {
	bytes, _, err := s.m.PacketLen(s.row(uint32(id)))
	if err != nil {
		return 0, false
	}
	return int64(bytes), true
}

// Audit is called only while flowParams reports Audit, i.e. eg.audit is set.
func (s *shard) Audit(id int32, delta int64) { s.eg.audit[id] += delta }

// The portSched is the Stack's Hierarchy: level parameters and node
// weights come from the shard's level configuration, the leaf
// population is the shard's flow table. The Stack reads them at Init and
// Refresh only, so whatever changes them refreshes every built stack:
// SetEgress (Reset), SetTierWeight and the test-only audit install.

func (ps *portSched) Params(level int) sched.Params {
	lv := &ps.s.eg.levels[level]
	return sched.Params{Kind: lv.kind, Quantum: lv.quantum, Audit: ps.audits != nil}
}

func (ps *portSched) Weight(level int, id int32) int64 {
	lv := &ps.s.eg.levels[level]
	if w := lv.weights[id%lv.mod]; w > 0 {
		return int64(w)
	}
	return 1
}

func (ps *portSched) LeafParams() sched.Params { return ps.s.flowParams() }
func (ps *portSched) Leaf() sched.Entity       { return ps.s }

// AuditNode is called only while Params reports Audit, i.e. audits is set.
func (ps *portSched) AuditNode(level int, id int32, delta int64) { ps.audits[level][id] += delta }

func (s *shard) flowParams() sched.Params {
	return sched.Params{Kind: s.eg.kind, Quantum: int64(s.eg.quantum), Audit: s.eg.audit != nil}
}

// pathOf appends flow's composite node index at every active level to
// buf (outermost first): the node at level k is the level-(k−1) node's
// index times the tier's unit count plus the flow's unit in that tier.
// Callers pass a stack-allocated buffer of numTiers capacity.
func (s *shard) pathOf(flow uint32, buf []int32) []int32 {
	fs := &s.flows[flow]
	idx := int32(0)
	for k := range s.eg.levels {
		lv := &s.eg.levels[k]
		idx = idx*lv.mod + fs.unit[lv.tier]
		buf = append(buf, idx)
	}
	return buf
}

// --- configuration ---

// buildLevels constructs a shard's active-level skeleton from the
// engine's fixed tier unit counts: one levelCfg per tier with more than
// one unit, outermost first, with composite node counts accumulated
// through the nesting. Disciplines and quanta are filled by SetEgress.
func buildLevels(units [numTiers]int32, tw *[numTiers][]int32) []levelCfg {
	var levels []levelCfg
	count := int32(1)
	for t := range numTiers {
		if units[t] <= 1 {
			continue
		}
		count *= units[t]
		levels = append(levels, levelCfg{
			tier:    t,
			mod:     units[t],
			count:   count,
			weights: tw[t],
		})
	}
	return levels
}

// resolveTierUnits reads the fixed tier unit counts off the egress
// configuration (see policy.EgressConfig.Units).
func resolveTierUnits(cfg policy.EgressConfig) (units [numTiers]int32) {
	for t := range numTiers {
		units[t] = int32(cfg.Units(t))
	}
	return units
}

// SetEgress replaces the egress discipline on every shard, resetting
// rotation, visit and deficit state at every level. The hierarchy's
// unit counts are fixed at construction: a nil Levels leaves the
// intermediate levels' disciplines, quanta and weights untouched (only
// the flow level changes); a non-nil Levels must list every active tier
// (Units 0 or the configured count) and replaces their disciplines —
// each spec's Weights, when non-nil, replace that tier's weights.
// Per-flow weights set with SetWeight survive a discipline change. Safe
// while traffic flows.
func (e *Engine) SetEgress(cfg policy.EgressConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	if cfg.Levels != nil {
		var seen [numTiers]bool
		for _, ls := range cfg.Levels {
			have := int(e.tierUnits[ls.Tier])
			if ls.Units != 0 && ls.Units != have {
				return fmt.Errorf("engine: %s Units %d does not match the configured %d (the unit space is fixed at construction)",
					ls.Tier, ls.Units, have)
			}
			if len(ls.Weights) > have {
				return fmt.Errorf("engine: %d %s weights for %d units", len(ls.Weights), ls.Tier, have)
			}
			seen[ls.Tier] = true
		}
		for t := range numTiers {
			if e.tierUnits[t] > 1 && !seen[t] {
				return fmt.Errorf("engine: egress Levels must list the active %s tier (%d units)", t, e.tierUnits[t])
			}
		}
	}
	for _, s := range e.shards {
		e.run(s, func() {
			s.eg.kind = cfg.Kind
			s.eg.defaultWeight = cfg.DefaultWeight
			s.eg.quantum = cfg.QuantumBytes
			s.eg.hasLevelDRR = false
			for k := range s.eg.levels {
				lv := &s.eg.levels[k]
				if ls := cfg.Level(lv.tier); ls != nil {
					lv.kind = ls.Kind
					lv.quantum = int64(ls.QuantumBytes)
					if ls.Weights != nil {
						clear(lv.weights)
						for i, x := range ls.Weights {
							lv.weights[i] = int32(x)
						}
					}
				}
				if lv.kind == policy.EgressDRR {
					s.eg.hasLevelDRR = true
				}
			}
			// Invalidate every flow deficit in O(1) instead of walking
			// the flow table.
			s.eg.epoch++
			for p := range s.ps {
				if s.ps[p].st.Ready() {
					s.ps[p].st.Reset()
				}
			}
		})
	}
	return nil
}

// SetWeight sets flow's egress weight for WRR (packets per visit) and DRR
// (quantum multiplier). Weights must be positive; flows default to the
// configured DefaultWeight. Unknown flows (outside the configured flow
// space) report ErrUnknownFlow. Safe while traffic flows.
func (e *Engine) SetWeight(flow uint32, weight int) error {
	if weight <= 0 || weight > policy.MaxWeight {
		return fmt.Errorf("engine: weight %d for flow %d out of range [1, %d]", weight, flow, policy.MaxWeight)
	}
	if !e.inSpace(flow) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	e.run(s, func() { s.flows[flow].weight = int32(weight) })
	return nil
}

// SetTierWeight sets the weight of one unit of tier — a tenant or a class —
// for that level's WRR (packets per visit) and DRR (quantum multiplier) on
// every shard. Weights must be positive; units default to weight 1 (or the
// tier's LevelSpec Weights). Safe while traffic flows.
func (e *Engine) SetTierWeight(tier policy.Tier, unit, weight int) error {
	if tier >= numTiers {
		return fmt.Errorf("engine: unknown egress tier %d", uint8(tier))
	}
	if weight <= 0 || weight > policy.MaxWeight {
		return fmt.Errorf("engine: weight %d for %s %d out of range [1, %d]", weight, tier, unit, policy.MaxWeight)
	}
	if unit < 0 || unit >= int(e.tierUnits[tier]) {
		return fmt.Errorf("engine: %s %d out of range [0, %d)", tier, unit, e.tierUnits[tier])
	}
	for _, s := range e.shards {
		e.run(s, func() {
			s.eg.tierWeights[tier][unit] = int32(weight)
			for p := range s.ps {
				if s.ps[p].st.Ready() {
					s.ps[p].st.Refresh()
				}
			}
		})
	}
	return nil
}

// rehome moves flow to unit of the home the selector names — its
// tenant, class or port. A backlogged flow moves with its queue: it
// leaves its old unit's active list — ending any open visit and
// forfeiting banked DRR deficit exactly as if it had drained, at every
// hierarchy level — and joins the new unit's rotation at the tail. Safe
// while traffic flows; per-flow FIFO is unaffected (the flow's shard
// does not change).
func (e *Engine) rehome(flow uint32, home func(*flowState) *int32, unit int) error {
	if !e.inSpace(flow) {
		return ErrUnknownFlow
	}
	s := e.shardOf(flow)
	e.run(s, func() {
		cur := home(&s.flows[flow])
		if int(*cur) == unit {
			return
		}
		active := s.isActive(flow)
		if active {
			s.clearActive(flow)
		}
		*cur = int32(unit)
		if active {
			s.setActive(flow)
		}
	})
	return nil
}

// setFlowTier moves flow into a tier unit (see rehome).
func (e *Engine) setFlowTier(flow uint32, tier policy.Tier, unit int) error {
	if unit < 0 || unit >= int(e.tierUnits[tier]) {
		return fmt.Errorf("engine: %s %d out of range [0, %d)", tier, unit, e.tierUnits[tier])
	}
	return e.rehome(flow, func(fs *flowState) *int32 { return &fs.unit[tier] }, unit)
}

// SetFlowClass moves flow into class (all flows start in class 0). A
// backlogged flow moves with its queue, as if it had drained and
// re-activated (see rehome). Safe while traffic flows.
func (e *Engine) SetFlowClass(flow uint32, class int) error {
	return e.setFlowTier(flow, policy.TierClass, class)
}

// SetFlowTenant moves flow into tenant (all flows start in tenant 0),
// with SetFlowClass's re-homing semantics.
func (e *Engine) SetFlowTenant(flow uint32, tenant int) error {
	return e.setFlowTier(flow, policy.TierTenant, tenant)
}

// FlowInfo is one flow's configuration and live occupancy (see Flow).
type FlowInfo struct {
	Port, Tenant, Class int
	// Weight is the WRR/DRR weight the scheduler uses for the flow: the
	// one SetWeight installed, else the discipline's default.
	Weight int
	// Limit is the per-flow segment cap (SetFlowLimit); 0 means none.
	Limit int
	// Occupancy is what the flow's queue holds right now.
	queue.Occupancy
}

// Flow reads flow's homes (port, tenant, class), weight, segment cap and
// occupancy in one critical section of the owning shard. Like the rest of
// the observation surface it keeps working after Close. Unknown flows
// (outside the configured flow space) report ErrUnknownFlow.
func (e *Engine) Flow(flow uint32) (FlowInfo, error) {
	if !e.inSpace(flow) {
		return FlowInfo{}, ErrUnknownFlow
	}
	s := e.shardOf(flow)
	var fi FlowInfo
	e.run(s, func() {
		fs := &s.flows[flow]
		fi = FlowInfo{
			Port:   int(fs.port),
			Tenant: int(fs.unit[policy.TierTenant]),
			Class:  int(fs.unit[policy.TierClass]),
			Weight: int(s.Weight(int32(flow))),
		}
		// flow is in range: neither read can fail.
		fi.Limit, _ = s.m.SegmentLimit(s.row(flow))
		fi.Occupancy, _ = s.m.Occupancy(s.row(flow))
	})
	return fi, nil
}

// --- dequeue paths ---

// DequeueNext serves one packet chosen by the egress discipline,
// whichever port it belongs to. ok is false when the engine holds no
// packets. Release the data when done. It allocates nothing beyond the
// pooled payload buffer, so per-packet drain loops stay allocation-free.
func (e *Engine) DequeueNext() (Dequeued, bool) {
	var one [1]Dequeued // a batch of one, held in this frame
	ok := len(e.pull(e.egCursor.Add(1)-1, anyPort, false, one[:0], 1, unshapedBudget)) == 1
	return one[0], ok
}

// DequeueNextBatch serves up to max packets, choosing flows by the
// configured egress discipline across all ports. The starting shard
// rotates per call so shards share the egress bandwidth; within a shard,
// units and flows are picked by the level-stack discipline against the
// active lists. Buffers come from the engine pool — ReleaseBuffer each
// packet's Data when done. The result slice is allocated once, when the
// first packet is served (see newBatch); an empty poll allocates nothing.
func (e *Engine) DequeueNextBatch(max int) []Dequeued { return e.dequeueNextBatch(max, false) }

// dequeueNextBatch is DequeueNextBatch and DequeueNextViewBatch.
func (e *Engine) dequeueNextBatch(max int, view bool) []Dequeued {
	if max <= 0 {
		return nil
	}
	return e.pull(e.egCursor.Add(1)-1, anyPort, view, nil, max, unshapedBudget)
}

// pull is the one shard walk of every picked dequeue: it drains the shards
// in turn from start (see drainShard) on port (anyPort = all) until out
// reaches max or room is used up. A result short of both limits means
// every shard was visited and left with nothing servable. The pull API
// rotates start with egCursor, a port's pacer with its own shardCursor
// (dequeuePort).
func (e *Engine) pull(start uint32, port int, view bool, out []Dequeued, max int, room int64) []Dequeued {
	// The shard count is a power of two; mask before the int conversion so
	// the uint32 cursor wrapping past 2^31 cannot go negative on 32-bit
	// platforms.
	mask := uint32(len(e.shards) - 1)
	for i := uint32(0); i <= mask && len(out) < max && room > 0; i++ {
		out, room = e.drainShard(e.shards[int((start+i)&mask)], port, view, out, max, room)
	}
	return out
}

// drainShard serves discipline-picked packets from one shard on one port
// (anyPort = all) until out reaches max, the packet that uses up room bytes
// has been served (so room is overdrawn by less than one packet — the
// shaper's charge-after-send rule) or the shard has nothing servable; a
// closed engine serves nothing. It returns the room left. pull is its one
// caller. A drain of max 1 issues no lookahead hints, but it does count
// against the shard's shared mark (hinting).
func (e *Engine) drainShard(s *shard, port int, view bool, out []Dequeued, max int, room int64) ([]Dequeued, int64) {
	if !e.enter(s) {
		return out, room
	}
	var d Dequeued
	var la lookahead
	hint := s.hinting()
	for len(out) < max && room > 0 {
		flow, debit, ok := s.pickLocked(port)
		if !ok {
			break
		}
		if hint && len(out)+1 < max {
			s.hintAhead(&la, flow, port)
		}
		if s.take(&d, flow, view, debit) != nil {
			break
		}
		if out == nil {
			out = newBatch(1, max)
		}
		out = append(out, d)
		room -= int64(d.Bytes)
	}
	s.unlock()
	return out, room
}

// sharedDrains is how many drains of a shard issue prefetch hints after a
// contended entry marked it shared (see lockContended).
const sharedDrains = 1024

// markShared turns the shard's prefetch hints on for the next drains
// drains, the producer's two (AllocN's and HintNext's) with them.
func (s *shard) markShared(drains int) {
	s.shared = drains
	s.cache.SetHints(true)
}

// hinting reports whether this drain issues prefetch hints, and counts it
// against the shard's shared mark; the drain that uses the mark up turns
// the producer's hints (segstore.Cache.SetHints) off with it. A hint pays
// off only when its line is far away, last written on another core. On one
// goroutine the lines are in its own cache and the hints are pure cost:
// ungated, they made a single-goroutine enqueue/dequeue loop of 64-byte
// packets about a fifth slower (EXPERIMENTS.md, "The pipelined drain").
func (s *shard) hinting() bool {
	if s.shared == 0 {
		return false
	}
	if s.shared--; s.shared == 0 {
		s.cache.SetHints(false)
	}
	return true
}

// lookahead is the drain's software pipeline (DESIGN.md, "The pipelined
// drain"): cur is the flow being served on port, and f holds the next
// distinct flows the picks are predicted to serve, nearest first, carried
// from packet to packet like pipeline registers; n of them are valid.
type lookahead struct {
	port int32
	cur  int32
	n    int
	f    [3]int32
}

// hintAhead advances the drain's pipeline to flow, just picked for target
// (the drain's port, or anyPort), and issues the hints for the flows ahead
// of it, inside the shard's critical section: the links and configuration
// of the flow three ahead, the queue row of the one two ahead and the head
// segment of the next — each stage reading only what the stage behind it
// hinted a packet earlier. A pick of the flow being served (a WRR or DRR
// visit going on) changes nothing and hints nothing. On a flat stack a
// pick of the nearest prediction shifts the registers and extends them by
// the one link the last packet hinted. Any other pick restarts them from
// Stack.Peek — past flow itself, when its visit is still open — and walks
// two links; so does every new pick on a stack with levels, whose next
// pick is seldom the next flow of one leaf list. An anyPort pull while
// another port has active flows hints nothing: pickLocked has moved
// portCursor past flow's port, so the next pick is on another port. A
// wrong prediction costs a few wasted hints and never a wrong packet:
// nothing here writes engine state.
func (s *shard) hintAhead(la *lookahead, flow uint32, target int) {
	port, cur := s.flows[flow].port, int32(flow)
	ps := &s.ps[port]
	switch {
	case target == anyPort && s.activeFlows > ps.activeFlows:
		la.n = 0
		return
	case la.n > 0 && la.port == port && cur == la.cur:
		return
	case la.n > 0 && la.port == port && cur == la.f[0] && ps.st.Depth() == 0:
		la.f[0], la.f[1] = la.f[1], la.f[2]
		la.n--
	default:
		next, _ := ps.st.Peek() // flow is still active: never empty
		if next == cur {
			next = s.links[cur].Next
		}
		la.port, la.f[0], la.n = port, next, 1
	}
	la.cur = cur
	for la.n < len(la.f) {
		next := s.links[la.f[la.n-1]].Next
		if next == sched.None {
			break
		}
		la.f[la.n] = next
		la.n++
	}
	near := s.row(uint32(la.f[0]))
	row := near
	if la.n > 1 {
		row = s.row(uint32(la.f[1]))
	}
	s.m.Hint(row, near)
	if la.n > 2 {
		f := la.f[2]
		prefetch.Hint([]unsafe.Pointer{unsafe.Pointer(&s.links[f]), unsafe.Pointer(&s.flows[f])})
	}
}

// batchAlloc bounds the capacity a batch result slice starts with, so a
// caller's "as many as there are" max does not size an allocation.
const batchAlloc = 64

// newBatch allocates a batch call's result slice — once per call, when the
// first packets are served: room for the served packets in hand and, up to
// batchAlloc, for the rest of the max the call may still serve.
func newBatch(served, max int) []Dequeued {
	if max > batchAlloc {
		max = batchAlloc
	}
	if max < served {
		max = served
	}
	return make([]Dequeued, 0, max)
}

// chargeLevels debits the bytes actually served on flow against every
// DRR intermediate level of the flow's scheduling unit, inside the
// shard's critical section. The picks' fit checks price on peeked
// estimates; charging actuals keeps the level conservation exact
// (served ≡ granted − deficit).
func (s *shard) chargeLevels(flow uint32, bytes int) {
	fs := &s.flows[flow]
	var pb [numTiers]int32
	s.ps[fs.port].st.Charge(s.pathOf(flow, pb[:0]), int64(bytes))
}

// --- active-list maintenance (caller holds the shard's critical section) ---

func (s *shard) isActive(flow uint32) bool { return s.links[flow].Next != sched.None }

// initPortLocked builds a port's level stack on its first active flow.
func (s *shard) initPortLocked(ps *portSched) {
	var counts [numTiers]int32
	c := counts[:0]
	for k := range s.eg.levels {
		c = append(c, s.eg.levels[k].count)
	}
	ps.st.Init(ps, c)
	ps.st.ShareLeaves(s.links)
	if s.eg.auditLevels {
		s.initLevelAuditLocked(ps)
	}
}

// initLevelAuditLocked allocates a port unit's per-level audit slices
// (tests only), sized to each level's composite node count, and has the
// stack re-read its Params so every level reports to them.
func (s *shard) initLevelAuditLocked(ps *portSched) {
	ps.audits = make([][]int64, ps.st.Depth())
	for k := range ps.audits {
		ps.audits[k] = make([]int64, ps.st.Width(k))
	}
	ps.st.Refresh()
}

func (s *shard) setActive(flow uint32) {
	if s.isActive(flow) {
		return
	}
	p := int(s.flows[flow].port)
	ps := &s.ps[p]
	if !ps.st.Ready() {
		s.initPortLocked(ps)
	}
	var pb [numTiers]int32
	ps.st.Activate(int32(flow), s.pathOf(flow, pb[:0]))
	ps.activeFlows++
	s.activeFlows++
	// First traffic for this flow: an idle-parked port wants to know.
	// The flag check is one atomic load; the enqueue to the pacer only
	// happens while the port is actually parked.
	s.ports[p].notify()
}

func (s *shard) clearActive(flow uint32) {
	if !s.isActive(flow) {
		return
	}
	ps := &s.ps[s.flows[flow].port]
	var pb [numTiers]int32
	ps.st.Deactivate(int32(flow), s.pathOf(flow, pb[:0]))
	ps.activeFlows--
	s.activeFlows--
}

// --- picking (caller holds the shard's critical section) ---

// pickLocked returns the next flow the level-stack discipline serves on
// port (anyPort rotates across ports), plus the flow-level DRR byte
// debit to charge if the packet is actually served (0 for the
// packet-granular disciplines). The scheduler is work-conserving:
// whenever any flow is active on the selected port, a flow is returned.
func (s *shard) pickLocked(port int) (uint32, int64, bool) {
	if s.activeFlows == 0 {
		return 0, 0, false
	}
	if port == anyPort {
		n := len(s.ps)
		for i := 0; i < n; i++ {
			// Unsigned, so the cursor wrapping past 2^31 cannot index
			// negatively where int is 32 bits.
			p := int(s.portCursor % uint32(n))
			s.portCursor++
			if s.ps[p].activeFlows > 0 {
				return s.pickPort(p)
			}
		}
		return 0, 0, false
	}
	if s.ps[port].activeFlows == 0 {
		return 0, 0, false
	}
	return s.pickPort(port)
}

// pickPort runs the hierarchy for one scheduling unit: the stack's
// levels pick top-down — outermost tier first, flows within the
// innermost winner. The port has at least one active flow. A flat
// configuration's stack has depth 0, so it pays nothing for the
// hierarchy.
func (s *shard) pickPort(port int) (uint32, int64, bool) {
	f, debit, ok := s.ps[port].st.Pick()
	if !ok {
		return 0, 0, false // unreachable while activeFlows > 0
	}
	return uint32(f), debit, true
}
