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
// flowState entry in an engine-wide table (intrusive list links, port,
// tenant, class, weight, DRR deficit — no per-flow maps, no per-port
// bitmaps), so a million flows cost a million small structs rather than
// ports×flows bits, and activation/deactivation/picking are O(1) list
// splices. Intermediate nodes (a tenant, a (tenant, class) pair) are
// dense composite indices into per-level slices inside the Stack.
// Entries are only ever touched inside the owning shard's critical
// section; the table is engine-wide only so the facade can size it
// once.
//
// All egress state lives per shard under the shard lock: a flow always
// hashes to the same shard, so per-flow cursor/credit/deficit state
// never migrates. The discipline arbitrates among the flows of one
// (shard, port) pair; cross-shard fairness comes from rotating the
// shard a batch (or the pacer's scan) starts on, and ports are
// independent transmit resources by construction.

import (
	"fmt"

	"npqm/internal/policy"
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
// when done; empty when data storage is off, where Bytes is derived from
// the segment count so shapers can charge transmissions either way). View
// delivery fills View with the packet's segment chain, read in place;
// Bytes then comes from the queue accounting and is exact either way.
type Dequeued struct {
	Flow  uint32
	Bytes int
	Data  []byte
	View  PacketView
}

// DequeuedView is Dequeued under the name the view entry points use.
type DequeuedView = Dequeued

// flowState is one flow's dense scheduler state: the intrusive links of
// its innermost active list, its home port and its unit in every tier
// (tenant, class), its WRR/DRR weight, its DRR deficit, and its row in
// the owning shard's queue table. One entry per flow, engine-wide,
// touched only inside the owning shard's critical section. next ==
// sched.None means the flow is not active (no backlog). 40 bytes, row
// included: it sits in the four bytes that aligning deficit leaves free
// (layout_test.go pins the size).
type flowState struct {
	next, prev int32
	port       int32
	unit       [numTiers]int32
	weight     int32  // 0 = discipline default
	defEpoch   uint32 // deficit is valid only when this matches eg.epoch
	row        uint32 // fixed at New; see shard.row
	deficit    int64
}

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

func (s *shard) Next(id int32) int32    { return s.flows[id].next }
func (s *shard) SetNext(id, next int32) { s.flows[id].next = next }
func (s *shard) Prev(id int32) int32    { return s.flows[id].prev }
func (s *shard) SetPrev(id, prev int32) { s.flows[id].prev = prev }

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

func (s *shard) Audit(id int32, delta int64) {
	if s.eg.audit != nil {
		s.eg.audit[id] += delta
	}
}

// The portSched is the Stack's Hierarchy: level parameters and node
// weights come from the shard's level configuration, the leaf
// population is the shard's flow table. Pointer-shaped.

func (ps *portSched) Params(level int) sched.Params {
	lv := &ps.s.eg.levels[level]
	return sched.Params{Kind: lv.kind, Quantum: lv.quantum}
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

func (ps *portSched) AuditNode(level int, id int32, delta int64) {
	if ps.audits != nil {
		ps.audits[level][id] += delta
	}
}

func (s *shard) flowParams() sched.Params {
	return sched.Params{Kind: s.eg.kind, Quantum: int64(s.eg.quantum)}
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
		e.run(s, func() { s.eg.tierWeights[tier][unit] = int32(weight) })
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
func (e *Engine) DequeueNext() (Dequeued, bool) { return e.dequeueNext(false) }

// dequeueNext is DequeueNext and DequeueNextView: the shards are tried in
// turn from a rotating start, each for one picked packet.
func (e *Engine) dequeueNext(view bool) (Dequeued, bool) {
	n := len(e.shards)
	start := int((e.egCursor.Add(1) - 1) & uint32(n-1))
	for i := 0; i < n; i++ {
		s := e.shards[(start+i)%n]
		if !e.enter(s) {
			break
		}
		var d Dequeued
		ok := s.dequeuePicked(&d, anyPort, view)
		s.unlock()
		if ok {
			return d, true
		}
	}
	return Dequeued{}, false
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
	n := len(e.shards)
	// n is a power of two; mask before the int conversion so the uint32
	// cursor wrapping past 2^31 cannot go negative on 32-bit platforms.
	start := int((e.egCursor.Add(1) - 1) & uint32(n-1))
	var out []Dequeued
	for i := 0; i < n && len(out) < max; i++ {
		out, _ = e.drainShard(e.shards[(start+i)%n], anyPort, view, out, max, unshapedBudget)
	}
	return out
}

// drainShard serves discipline-picked packets from one shard on one port
// (anyPort = all) until out reaches max, the packet that uses up room bytes
// has been served (so room is overdrawn by less than one packet — the
// shaper's charge-after-send rule) or the shard has nothing servable; a
// closed engine serves nothing. It returns the room left. Shared by the
// pull API (dequeueNextBatch, which sets no byte limit) and the pacers
// (dequeuePort).
func (e *Engine) drainShard(s *shard, port int, view bool, out []Dequeued, max int, room int64) ([]Dequeued, int64) {
	if !e.enter(s) {
		return out, room
	}
	var d Dequeued
	for len(out) < max && room > 0 && s.dequeuePicked(&d, port, view) {
		if out == nil {
			out = newBatch(1, max)
		}
		out = append(out, d)
		room -= int64(d.Bytes)
	}
	s.unlock()
	return out, room
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

// dequeuePicked serves one packet picked by the level-stack discipline
// from shard s into *d, inside s's critical section.
// port selects the scheduling unit (anyPort rotates over all of them). It
// reports false when the shard has nothing servable on that port.
func (s *shard) dequeuePicked(d *Dequeued, port int, view bool) bool {
	for {
		flow, debit, ok := s.pickLocked(port)
		if !ok {
			return false
		}
		if s.take(d, flow, view, debit) == nil {
			return true
		}
		// The list said active but no complete packet is available
		// (raw-segment misuse): deactivate the flow so the pick loop
		// cannot spin on it. Nothing was served, so take charged nothing,
		// and any banked deficit is forfeited by clearActive.
		s.clearActive(flow)
	}
}

// --- active-list maintenance (caller holds the shard's critical section) ---

func (s *shard) isActive(flow uint32) bool { return s.flows[flow].next != sched.None }

// initPortLocked builds a port's level stack on its first active flow.
func (s *shard) initPortLocked(ps *portSched) {
	var counts [numTiers]int32
	c := counts[:0]
	for k := range s.eg.levels {
		c = append(c, s.eg.levels[k].count)
	}
	ps.st.Init(ps, c)
	if s.eg.auditLevels {
		s.initLevelAuditLocked(ps)
	}
}

// initLevelAuditLocked allocates a port unit's per-level audit slices
// (tests only), sized to each level's composite node count.
func (s *shard) initLevelAuditLocked(ps *portSched) {
	ps.audits = make([][]int64, ps.st.Depth())
	for k := range ps.audits {
		ps.audits[k] = make([]int64, ps.st.Width(k))
	}
}

func (s *shard) setActive(flow uint32) {
	fs := &s.flows[flow]
	if fs.next != sched.None {
		return
	}
	p := int(fs.port)
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
	fs := &s.flows[flow]
	if fs.next == sched.None {
		return
	}
	ps := &s.ps[fs.port]
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
