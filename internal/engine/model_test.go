package engine

// The engine's reference model: what every command must do, written in
// plain Go over one global pool, the way the paper's MMS and LQD are
// defined — per-flow FIFOs of whole packets, one free count, the longest
// queue's head packet pushed out when the buffer is full — plus the egress
// disciplines as sched.Level states them: a rotation per scheduling unit
// and node, RR/Prio/WRR/DRR at every level, and the pull and pacer entry
// points' shard and port cursors. It keeps time as the transmit interface
// does: each port's token bucket (refilled up to its burst, a tick's
// budget per service, one charge per drained batch), the tick it is parked
// on the pacer's wheel until (never more than the horizon ahead, parked
// again when that slot comes up short), Pause, and RED's EWMA, drop curve
// and seeded draw per shard. The harness (runEngine, fuzz_test.go) runs
// each command on the engine and on the model and holds the engine to the
// model's answer, error text included.
//
// The model takes two things from the engine as given: shardIndex, the
// partition of the flow space, and how many segments the arriving shard
// can reach (segstore.Cache.Avail) — read when a post settles, since a
// posted arrival cannot leave its shard to fetch segments other shards'
// caches strand, and recorded each time RED is asked, since an arrival RED
// admits but its shard cannot reach flushes another shard's cache and asks
// RED again. Every RED verdict is the model's own.

import (
	"fmt"
	"math/big"
	"slices"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/xrand"
)

// mPkt is one modelled packet: its serial, which fixes its payload (see
// payloadOf), and its length.
type mPkt struct {
	serial uint32
	bytes  int
}

func (p mPkt) segs() int { return segsFor(p.bytes) }

// mFlow is one flow: its queue, its segment cap, its homes and its
// scheduler state.
type mFlow struct {
	q       []mPkt
	segs    int
	limit   int // SetFlowLimit; 0 = none
	port    int32
	unit    [numTiers]int32
	weight  int64 // SetWeight; 0 = the discipline's default
	deficit int64
	active  bool
}

// rot is one sched.Level: the members in rotation order, the cursor's
// index into them, and the open WRR/DRR visit.
type rot struct {
	ids      []int32
	cur      int
	visiting bool
	credit   int64
}

// mNode is an intermediate scheduling node: its own deficit and the
// rotation over the tier below it.
type mNode struct {
	deficit int64
	child   rot
}

// mUnit is one (shard, port) scheduling unit; nodes[k] is level k's nodes.
type mUnit struct {
	root  rot
	nodes [][]mNode
}

// mLevel is one active intermediate level: the tier, its discipline, its
// unit count and its composite node count.
type mLevel struct {
	tier       policy.Tier
	kind       policy.EgressKind
	quantum    int64
	mod, count int32
}

// The pacer's time, as the model states it: a 1 ms tick, and a wheel that
// parks a port at most 255 ticks ahead.
const (
	mTick    = second / 1000
	mHorizon = 255
)

// mPort is a port's transmit state as its pacer and shaper keep it.
type mPort struct {
	serving bool   // ServeViews registered a sink
	paused  bool   // Pause, until Resume
	idle    bool   // a scan found nothing: an activation wakes it
	wake    bool   // kicked or notified: the next settle serves it
	due     int64  // the tick it is parked on the wheel until; 0 = none
	cursor  uint32 // the pacer's rotating start shard
	bucket
	throttled, txPackets, txBytes uint64
}

// bucket is a port's token bucket: rate bytes a second (0: unshaped) up to
// burst, tokens of credit (negative: in debt) and frac byte·ns below a
// byte, as of engine time last.
type bucket struct{ rate, burst, tokens, frac, last int64 }

// set is a (re)configuration at now: the bucket starts full.
func (b *bucket) set(cfg policy.ShaperConfig, now int64) {
	cfg = cfg.WithDefaults()
	*b = bucket{cfg.RateBytesPerSec, cfg.BurstBytes, cfg.BurstBytes, 0, now}
}

// after is the credit el ns after last, as whole bytes and the byte·ns
// below a byte, capped at the burst if asked: the credit is counted in
// byte·ns, in a big.Int, so nothing is rounded away or overflows.
func (b *bucket) after(el int64, capped bool) (tokens, frac int64) {
	ns := big.NewInt(second)
	c := new(big.Int).Mul(big.NewInt(b.tokens), ns)
	c.Add(c, big.NewInt(b.frac))
	c.Add(c, new(big.Int).Mul(big.NewInt(el), big.NewInt(b.rate)))
	if full := new(big.Int).Mul(big.NewInt(b.burst), ns); capped && c.Cmp(full) > 0 {
		c = full
	}
	q, r := c.DivMod(c, ns, new(big.Int))
	return q.Int64(), r.Int64()
}

// refill brings a shaped bucket up to now, capped at the burst.
func (b *bucket) refill(now int64) {
	if b.rate > 0 && now > b.last {
		b.tokens, b.frac = b.after(now-b.last, true)
		b.last = now
	}
}

// peek is the credit a refill at now would leave, the bucket unchanged:
// what PortStats reads.
func (b *bucket) peek(now int64) int64 {
	if b.rate > 0 && now > b.last {
		tokens, _ := b.after(now-b.last, true)
		return tokens
	}
	return b.tokens
}

// budget is what a service at now may send: the credit plus the coming
// tick's earnings; when that is not positive, wait is the ns until it is.
func (b *bucket) budget(now int64) (bytes, wait int64) {
	if b.rate == 0 {
		return unshapedBudget, 0
	}
	b.refill(now)
	if bytes, _ = b.after(mTick, false); bytes > 0 {
		return bytes, 0
	}
	return bytes, max((1-bytes)*second/b.rate, 1)
}

// mServed is a packet of a flow: one a pick delivers, a post waiting in a
// ring, a reservation's.
type mServed struct {
	flow uint32
	pkt  mPkt
}

type model struct {
	pool, shards int
	now          int64 // engine time
	shardOf      func(uint32) int
	adm          policy.Config
	flows        []mFlow
	ports        []mPort
	units        [][]mUnit // [shard][port]
	portCur      []uint32  // per shard: anyPort's rotating port
	egCur        uint32    // the pull API's rotating start shard

	kind          policy.EgressKind // flow level
	quantum       int64
	defaultWeight int64
	levels        []mLevel
	tierW         [numTiers][]int64

	red   []mRED // per shard, under RED
	reach []int  // the arriving shard's reach, recorded as RED is asked

	queued, lent int
	c            Counters
}

// mRED is one shard's RED state.
type mRED struct {
	avg   float64 // EWMA of the pool's occupied fraction
	count int     // arrivals since the last drop; -1 below MinTh
	rng   *xrand.Source
}

func newModel(cfg Config, shardOf func(uint32) int) *model {
	m := &model{
		pool: cfg.NumSegments, shards: cfg.Shards, shardOf: shardOf, adm: cfg.Admission,
		flows: make([]mFlow, cfg.NumFlows), ports: make([]mPort, cfg.NumPorts),
		units: make([][]mUnit, cfg.Shards), portCur: make([]uint32, cfg.Shards),
	}
	count := int32(1)
	for t := range numTiers {
		units := cfg.Egress.Units(t)
		m.tierW[t] = make([]int64, units)
		if units > 1 {
			count *= int32(units)
			m.levels = append(m.levels, mLevel{tier: t, mod: int32(units), count: count})
		}
	}
	for s := range m.units {
		m.units[s] = make([]mUnit, cfg.NumPorts)
		for p := range m.units[s] {
			u := &m.units[s][p]
			for _, lv := range m.levels {
				u.nodes = append(u.nodes, make([]mNode, lv.count))
			}
		}
	}
	m.setEgress(cfg.Egress)
	for p := range m.ports {
		m.ports[p].set(cfg.PortRate, 0)
	}
	if m.adm.Kind == policy.KindRED {
		// Seeded per shard as SetAdmission seeds it.
		seed := max(m.adm.Seed, 1)
		for s := range cfg.Shards {
			m.red = append(m.red, mRED{count: -1, rng: xrand.New(seed + uint64(s)*0x9e3779b97f4a7c15)})
		}
	}
	return m
}

func (m *model) free() int { return m.pool - m.queued - m.lent }

// --- arrivals ---

// arrive settles an arrival of pkt on flow and returns its fate: nil
// (admitted), ErrAdmissionDrop, queue.ErrQueueLimit or
// queue.ErrNoFreeSegments (rejected for want of room), or the caller's
// error — a flow outside the flow space, an empty packet — which no counter
// books. avail is the arriving shard's reach for a posted arrival (nil for
// a blocking one), which the arrival's own evictions refill and its
// enqueue spends. An admitted packet is queued unless reserve is set (it
// then waits for commit, lent).
func (m *model) arrive(flow uint32, pkt mPkt, avail *int, reserve bool) error {
	switch {
	case int64(flow) >= int64(len(m.flows)):
		return m.errFlow(flow)
	case pkt.bytes == 0:
		return fmt.Errorf("%w: empty packet", queue.ErrBadLength)
	}
	f, need := &m.flows[flow], pkt.segs()
	capped := f.limit > 0 && f.segs+need > f.limit
	switch m.adm.Kind {
	case policy.KindTailDrop:
		if need > m.free() || m.adm.Limit > 0 && f.segs+need > m.adm.Limit {
			return m.drop(need)
		}
	case policy.KindLQD:
		if need > m.pool && !capped {
			return m.drop(need)
		}
	case policy.KindRED:
		// Asked once a round: an admitted arrival its shard cannot reach
		// flushes another shard's cache and asks again; a posted one stays
		// and is refused below.
		for !capped {
			reach := m.nextReach()
			if m.redDrops(m.shardOf(flow), need) {
				return m.drop(need)
			}
			if avail != nil || reach >= need {
				break
			}
		}
	}
	if capped {
		m.c.Rejected++
		return errCap(flow, need)
	}
	lqd := m.adm.Kind == policy.KindLQD
	if avail == nil {
		for lqd && m.free() < need && m.evict(-1) > 0 {
		}
	} else {
		// A posted arrival stays on its shard: under LQD it evicts from its
		// own shard's longest queue, a packet a round, until it fits the
		// pool and its shard's reach.
		for round := 0; lqd && (m.free() < need || *avail < need); round++ {
			freed := 0
			if round < maxEvictAttempts {
				freed = m.evict(m.shardOf(flow))
			}
			if freed == 0 {
				return m.drop(need)
			}
			*avail += freed
		}
		if *avail < need {
			m.c.Rejected++
			return queue.ErrNoFreeSegments
		}
		*avail -= need
	}
	switch {
	case m.free() >= need && reserve:
		m.lent += need
	case m.free() >= need:
		m.commit(flow, pkt)
		m.c.CopiedBytes += uint64(pkt.bytes)
	case lqd:
		return m.drop(need)
	default:
		m.c.Rejected++
		return queue.ErrNoFreeSegments
	}
	return nil
}

// nextReach is the reach recorded when RED was asked next.
func (m *model) nextReach() int {
	if len(m.reach) == 0 {
		panic("RED was asked fewer times than the model asks it")
	}
	r := m.reach[0]
	m.reach = m.reach[1:]
	return r
}

// redDrops is RED's verdict on shard sh for an arrival of need segments:
// the EWMA of the pool's occupancy moves on every arrival; above MaxTh
// every arrival drops, between the thresholds one with a probability
// rising linearly to MaxP, spread by the count since the last drop.
func (m *model) redDrops(sh, need int) bool {
	r, a := &m.red[sh], m.adm
	occ := float64(m.pool-m.free()) / float64(m.pool)
	r.avg = (1-a.Weight)*r.avg + a.Weight*occ
	switch {
	case need > m.free():
		return true
	case r.avg < a.MinTh:
		r.count = -1
		return false
	case r.avg >= a.MaxTh:
		r.count = 0
		return true
	}
	r.count++
	pb, pa := a.MaxP*(r.avg-a.MinTh)/(a.MaxTh-a.MinTh), 1.0
	if d := 1 - float64(r.count)*pb; d > 0 {
		pa = pb / d
	}
	if r.rng.Float64() < pa {
		r.count = 0
		return true
	}
	return false
}

// The errors as the engine words them, about the caller's flow.
func (m *model) errFlow(flow uint32) error {
	return fmt.Errorf("%w: %d (have %d)", queue.ErrBadQueue, flow, len(m.flows))
}

func errEmpty(flow uint32) error { return fmt.Errorf("%w: queue %d", queue.ErrQueueEmpty, flow) }

func errCap(flow uint32, need int) error {
	return fmt.Errorf("%w: queue %d cannot accept %d segments", queue.ErrQueueLimit, flow, need)
}

func (m *model) drop(need int) error {
	m.c.DroppedPackets++
	m.c.DroppedSegments += uint64(need)
	return ErrAdmissionDrop
}

// commit links an admitted packet: a copied one, or a reservation's, whose
// segments were lent until now.
func (m *model) commit(flow uint32, pkt mPkt) {
	m.link(flow, pkt)
	m.c.EnqueuedPackets++
	m.c.EnqueuedSegments += uint64(pkt.segs())
}

// evict pushes out the head packet of the longest queue — of shard sh, or
// pool-wide when sh < 0, ties to the lowest shard and then the lowest flow
// — and returns the segments it freed, 0 when every queue is empty.
func (m *model) evict(sh int) int {
	best, bestShard, victim := 0, 0, uint32(0)
	for f := range m.flows {
		s := m.shardOf(uint32(f))
		if n := m.flows[f].segs; (sh < 0 || s == sh) && (n > best || n == best && n > 0 && s < bestShard) {
			best, bestShard, victim = n, s, uint32(f)
		}
	}
	if best == 0 {
		return 0
	}
	p := m.unlink(victim)
	m.c.PushedOutPackets++
	m.c.PushedOutSegments += uint64(p.segs())
	return p.segs()
}

// link appends pkt to flow's queue; unlink takes its head packet off.
func (m *model) link(flow uint32, pkt mPkt) {
	f := &m.flows[flow]
	f.q = append(f.q, pkt)
	f.segs += pkt.segs()
	m.queued += pkt.segs()
	m.activate(flow)
}

func (m *model) unlink(flow uint32) mPkt {
	f := &m.flows[flow]
	p := f.q[0]
	f.q = f.q[1:]
	f.segs -= p.segs()
	m.queued -= p.segs()
	if len(f.q) == 0 {
		m.deactivate(flow)
	}
	return p
}

// --- departures ---

// take serves flow's head packet. debit is the pick's flow-level DRR
// charge, or unpicked for a dequeue that named its flow: only a pick is
// charged, and the charges land before an emptied flow forfeits.
func (m *model) take(flow uint32, debit int64) mPkt {
	f := &m.flows[flow]
	p := f.q[0]
	if debit > 0 {
		f.deficit -= debit
	}
	if debit != unpicked {
		for k, id := range m.path(flow) {
			if m.levels[k].kind == policy.EgressDRR {
				m.units[m.shardOf(flow)][f.port].nodes[k][id].deficit -= int64(p.bytes)
			}
		}
	}
	m.unlink(flow)
	m.c.DequeuedPackets++
	m.c.DequeuedSegments += uint64(p.segs())
	return p
}

// move is MovePacket: the error it must return (nil on success).
func (m *model) move(from, to uint32) error {
	switch {
	case int64(from) >= int64(len(m.flows)):
		return m.errFlow(from)
	case int64(to) >= int64(len(m.flows)):
		return m.errFlow(to)
	case len(m.flows[from].q) == 0:
		return errEmpty(from)
	}
	f, t, need := &m.flows[from], &m.flows[to], m.flows[from].q[0].segs()
	if from == to {
		if len(f.q) > 1 {
			f.q = append(f.q[1:], f.q[0])
		}
		return nil
	}
	var err error
	switch {
	case m.adm.Kind == policy.KindTailDrop && m.adm.Limit > 0 && t.segs+need > m.adm.Limit:
		err = ErrAdmissionDrop
	case t.limit > 0 && t.segs+need > t.limit:
		err = errCap(to, need)
	}
	if err != nil && m.shardOf(from) != m.shardOf(to) && len(f.q) == 1 {
		// The packet left its shard and was linked back at the head: the
		// source flow drained and re-activated.
		m.deactivate(from)
		m.activate(from)
	}
	if err == nil {
		m.link(to, m.unlink(from))
	}
	return err
}

// --- egress ---

// path is flow's composite node index at every active level.
func (m *model) path(flow uint32) []int32 {
	var p []int32
	idx := int32(0)
	for _, lv := range m.levels {
		idx = idx*lv.mod + m.flows[flow].unit[lv.tier]
		p = append(p, idx)
	}
	return p
}

// weight, deficit and params are what a rotation at level k needs of its
// members (k < 0: the flows).
func (m *model) weight(k int, id int32) int64 {
	if k < 0 {
		if w := m.flows[id].weight; w > 0 {
			return w
		}
		return m.defaultWeight
	}
	return max(m.tierW[m.levels[k].tier][id%m.levels[k].mod], 1)
}

func (m *model) deficit(u *mUnit, k int, id int32) *int64 {
	if k < 0 {
		return &m.flows[id].deficit
	}
	return &u.nodes[k][id].deficit
}

func (m *model) params(k int) (policy.EgressKind, int64) {
	if k < 0 {
		return m.kind, m.quantum
	}
	return m.levels[k].kind, m.levels[k].quantum
}

// head prices member id of level k for a DRR fit check: the head packet
// of the flow its subtree would serve next.
func (m *model) head(u *mUnit, k int, id int32) int64 {
	for k >= 0 { // id is a node: peek into its child rotation
		r := &u.nodes[k][id].child
		if k++; k == len(m.levels) {
			k = -1
		}
		id = r.ids[r.cur]
		if kind, _ := m.params(k); kind == policy.EgressPrio {
			id = slices.Min(r.ids)
		}
	}
	return int64(m.flows[id].q[0].bytes)
}

// add links id in just before the cursor, at the tail of the cycle; the
// first member is the cursor.
func (r *rot) add(id int32) {
	if r.ids = slices.Insert(r.ids, r.cur, id); len(r.ids) > 1 {
		r.cur++
	}
}

// remove takes id out of the rotation: a visit open on it ends, and its
// banked credit is forfeit but its debt kept.
func (r *rot) remove(id int32, deficit *int64) {
	i := slices.Index(r.ids, id)
	if r.visiting && i == r.cur {
		r.visiting, r.credit = false, 0
	}
	*deficit = min(*deficit, 0)
	r.ids = slices.Delete(r.ids, i, i+1)
	if i < r.cur {
		r.cur--
	}
	if r.cur == len(r.ids) {
		r.cur = 0
	}
}

func (r *rot) advance() { r.cur = (r.cur + 1) % len(r.ids) }

// pick is sched.Level.Pick on the rotation r of level k.
func (m *model) pick(u *mUnit, r *rot, k int) (int32, int64) {
	kind, quantum := m.params(k)
	visit := func() {
		r.visiting = true
		*m.deficit(u, k, r.ids[r.cur]) += m.weight(k, r.ids[r.cur]) * quantum
	}
	id := r.ids[r.cur]
	switch kind {
	case policy.EgressPrio:
		return slices.Min(r.ids), 0
	case policy.EgressWRR:
		switch {
		case r.visiting:
			if r.credit--; r.credit == 0 {
				r.visiting = false
				r.advance()
			}
		case m.weight(k, id) > 1:
			r.visiting, r.credit = true, m.weight(k, id)-1
		default:
			r.advance()
		}
		return id, 0
	case policy.EgressDRR:
		if !r.visiting {
			visit()
		}
		for range len(r.ids)*2048 + 8 {
			id = r.ids[r.cur]
			if b := m.head(u, k, id); b <= *m.deficit(u, k, id) {
				return id, b
			}
			r.advance()
			visit()
		}
		id = r.ids[r.cur]
		return id, m.head(u, k, id)
	}
	r.advance()
	return id, 0
}

// activate links a flow that just gained backlog into its unit, level by
// level outward while a rotation goes from empty to one member; deactivate
// unlinks a drained one the same way, forfeiting banked credit on every
// list it leaves. An activation wakes the flow's parked port.
func (m *model) activate(flow uint32) {
	f := &m.flows[flow]
	if f.active {
		return
	}
	f.active = true
	if p := &m.ports[f.port]; p.idle {
		p.idle, p.wake = false, true
	}
	u, path := &m.units[m.shardOf(flow)][f.port], m.path(flow)
	id := int32(flow)
	for k := len(path) - 1; k >= 0; k-- {
		r := &u.nodes[k][path[k]].child
		if r.add(id); len(r.ids) > 1 {
			return
		}
		id = path[k]
	}
	u.root.add(id)
}

func (m *model) deactivate(flow uint32) {
	f := &m.flows[flow]
	if !f.active {
		return
	}
	f.active = false
	u, path := &m.units[m.shardOf(flow)][f.port], m.path(flow)
	id, k := int32(flow), -1
	for i := len(path) - 1; i >= 0; i-- {
		r := &u.nodes[i][path[i]].child
		if r.remove(id, m.deficit(u, k, id)); len(r.ids) > 0 {
			return
		}
		id, k = path[i], i
	}
	u.root.remove(id, m.deficit(u, k, id))
}

// pickShard is the engine's pick on shard sh for port (anyPort: the next
// port with backlog in the shard's rotation), with the flow-level debit.
func (m *model) pickShard(sh, port int) (uint32, int64, bool) {
	units := m.units[sh]
	if port == anyPort {
		if !slices.ContainsFunc(units, func(u mUnit) bool { return len(u.root.ids) > 0 }) {
			return 0, 0, false
		}
		for port = -1; port < 0 || len(units[port].root.ids) == 0; m.portCur[sh]++ {
			port = int(m.portCur[sh] % uint32(len(units)))
		}
	}
	u := &units[port]
	if len(u.root.ids) == 0 {
		return 0, 0, false
	}
	r := &u.root
	for k := 0; ; k++ {
		lvl := k
		if k == len(m.levels) {
			lvl = -1
		}
		id, debit := m.pick(u, r, lvl)
		if lvl < 0 {
			return uint32(id), debit, true
		}
		r = &u.nodes[k][id].child
	}
}

// drainShard serves picked packets from shard sh on port until out holds
// max, the packet that uses up room bytes has left, or the shard has none;
// it returns the room left.
func (m *model) drainShard(sh, port, max int, room int64, out []mServed) ([]mServed, int64) {
	for len(out) < max && room > 0 {
		f, debit, ok := m.pickShard(sh, port)
		if !ok {
			break
		}
		out = append(out, mServed{f, m.take(f, debit)})
		room -= int64(out[len(out)-1].pkt.bytes)
	}
	return out, room
}

// next is DequeueNextBatch(max) (DequeueNext is max 1): the shards in turn
// from the pull API's rotating start.
func (m *model) next(max int) []mServed {
	var out []mServed
	if max <= 0 {
		return out
	}
	start := int(m.egCur & uint32(m.shards-1))
	m.egCur++
	for i := 0; i < m.shards; i++ {
		out, _ = m.drainShard((start+i)%m.shards, anyPort, max, unshapedBudget, out)
	}
	return out
}

// settle is what the pacer delivers at the model's now: every serving port
// that was kicked or notified, or whose tick on the wheel has come, is
// served until it parks — on the wheel, short of credit, or idle.
func (m *model) settle() map[int][]mServed {
	out := map[int][]mServed{}
	for pi := range m.ports {
		p := &m.ports[pi]
		run := p.wake || p.due > 0 && p.due <= m.now/mTick
		if p.wake = false; run {
			p.due = 0
		}
		for run {
			run = m.serve(pi, out)
		}
	}
	return out
}

// serve is one service round of port pi: a tick's budget, in passes from
// the next start shard each, of at most unshapedBatch packets in all. A
// pass short of both limits has left every shard empty, so the scan after
// it finds nothing and the port goes idle. It reports whether the port
// stays runnable: not when it parked on the wheel.
func (m *model) serve(pi int, out map[int][]mServed) bool {
	p := &m.ports[pi]
	if !p.serving || p.paused {
		return false
	}
	budget, wait := p.budget(m.now)
	if budget <= 0 {
		m.park(p, wait)
		return false
	}
	sent, pkts := int64(0), 0
	for scanned := false; pkts < unshapedBatch && sent < budget; scanned = true {
		n, max := len(out[pi]), len(out[pi])+unshapedBatch-pkts
		p.cursor++
		start, room := int(p.cursor&uint32(m.shards-1)), budget-sent
		for i := 0; i < m.shards && len(out[pi]) < max && room > 0; i++ {
			out[pi], room = m.drainShard((start+i)%m.shards, pi, max, room, out[pi])
		}
		batch := out[pi][n:]
		if scanned {
			if p.idle = len(batch) == 0; p.idle {
				return false
			}
		}
		accepted := budget - sent - room
		p.txPackets += uint64(len(batch))
		p.txBytes += uint64(accepted)
		if p.rate > 0 {
			p.tokens -= accepted // charged per batch
		}
		pkts, sent = pkts+len(batch), sent+accepted
	}
	if p.rate > 0 {
		if _, wait := p.budget(m.now); wait > 0 {
			m.park(p, wait)
			return false
		}
	}
	return true
}

// park counts a shaper wait and parks p on the wheel until the tick its
// bucket recovers by, or the horizon.
func (m *model) park(p *mPort, wait int64) {
	p.throttled++
	tick := m.now / mTick
	p.due = min(max((m.now+wait+mTick-1)/mTick, tick+1), tick+mHorizon)
}

// setEgress is SetEgress: new disciplines (the unit counts are fixed),
// every visit ended and every deficit reset; membership stays.
func (m *model) setEgress(cfg policy.EgressConfig) {
	cfg = cfg.WithDefaults()
	m.kind, m.quantum, m.defaultWeight = cfg.Kind, int64(cfg.QuantumBytes), int64(cfg.DefaultWeight)
	for k := range m.levels {
		lv := &m.levels[k]
		if ls := cfg.Level(lv.tier); ls != nil {
			lv.kind, lv.quantum = ls.Kind, int64(ls.QuantumBytes)
			if ls.Weights != nil {
				clear(m.tierW[lv.tier])
				for i, w := range ls.Weights {
					m.tierW[lv.tier][i] = int64(w)
				}
			}
		}
	}
	for f := range m.flows {
		m.flows[f].deficit = 0
	}
	reset := func(r *rot) { r.visiting, r.credit = false, 0 }
	for s := range m.units {
		for p := range m.units[s] {
			u := &m.units[s][p]
			reset(&u.root)
			for k := range u.nodes {
				for i := range u.nodes[k] {
					reset(&u.nodes[k][i].child)
					u.nodes[k][i].deficit = 0
				}
			}
		}
	}
}

// rehome moves flow to another port, tenant or class: a backlogged flow
// leaves its old unit's lists as if drained and joins the new one's tails.
func (m *model) rehome(flow uint32, home *int32, unit int32) {
	if *home == unit {
		return
	}
	active := m.flows[flow].active
	m.deactivate(flow)
	*home = unit
	if active {
		m.activate(flow)
	}
}

// --- control ---

func (m *model) portAt(port int) (*mPort, error) {
	if port >= len(m.ports) {
		return nil, fmt.Errorf("engine: port %d out of range [0, %d)", port, len(m.ports))
	}
	return &m.ports[port], nil
}

// setPortRate is SetPortRate: a configuration policy.ShaperConfig refuses
// is refused as it words it; any other fills the bucket at now and kicks
// the port.
func (m *model) setPortRate(port int, cfg policy.ShaperConfig) error {
	p, err := m.portAt(port)
	if err == nil {
		err = cfg.Validate()
	}
	if err == nil {
		p.set(cfg, m.now)
		p.wake = true
	}
	return err
}

// pause is Pause (paused) or Resume; either kicks the port.
func (m *model) pause(port int, paused bool) error {
	p, err := m.portAt(port)
	if err == nil {
		p.paused, p.wake = paused, true
	}
	return err
}

func (m *model) setWeight(flow uint32, w int) error {
	switch {
	case w <= 0 || w > policy.MaxWeight:
		return fmt.Errorf("engine: weight %d for flow %d out of range [1, %d]", w, flow, policy.MaxWeight)
	case int64(flow) >= int64(len(m.flows)):
		return ErrUnknownFlow
	}
	m.flows[flow].weight = int64(w)
	return nil
}

func (m *model) setTierWeight(tier policy.Tier, unit, w int) error {
	switch {
	case tier >= numTiers:
		return fmt.Errorf("engine: unknown egress tier %d", uint8(tier))
	case w <= 0 || w > policy.MaxWeight:
		return fmt.Errorf("engine: weight %d for %s %d out of range [1, %d]", w, tier, unit, policy.MaxWeight)
	case unit >= len(m.tierW[tier]):
		return fmt.Errorf("engine: %s %d out of range [0, %d)", tier, unit, len(m.tierW[tier]))
	}
	m.tierW[tier][unit] = int64(w)
	return nil
}
