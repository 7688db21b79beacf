package main

import (
	"fmt"
	"time"

	"npqm"
	"npqm/internal/engine"
	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/ring"
	"npqm/internal/sched"
	"npqm/internal/segstore"
)

// The replays drive one layer's exported API, alone and from one
// goroutine, with the workload's own packet sequence in the workload's own
// arrival/service pattern. Each gives that layer's cost per operation;
// multiplied by the operations a delivered packet needs, they add up
// toward the engine's single-goroutine round trip (budget.go).
//
// Every replay times whole blocks of calls, not single calls: a clock read
// costs as much as the operations measured. The sched replay is the one
// exception, see replaySched.

// pattern is the arrival/service shape a replay follows: prefill packets
// put a standing backlog in place, then each step offers and serves.
type pattern struct {
	prefill, offer, serve, steps int
}

func (w *workload) pattern(seconds float64) pattern {
	scale := seconds / refSeconds
	if w.stepped {
		return pattern{offer: w.offerPerStep, serve: w.servePerStep, steps: max(16, int(float64(w.refSteps/4)*scale))}
	}
	steps := 8192
	if w.maxSegs() > 1 {
		steps = 4096
	}
	return pattern{
		prefill: min(8192, w.pool/(4*w.maxSegs())),
		offer:   batchMax, serve: batchMax,
		steps: max(16, int(float64(steps)*scale)),
	}
}

// script is the pre-drawn packet sequence of one replay pass.
type script struct {
	flows []uint32
	sizes []uint16
}

func newScript(w *workload, seed uint64, p pattern) (*script, error) {
	src, err := newSource(w, seed)
	if err != nil {
		return nil, err
	}
	n := p.prefill + p.steps*p.offer
	sc := &script{flows: make([]uint32, n), sizes: make([]uint16, n)}
	for i := range sc.flows {
		f, _, size := src.next()
		sc.flows[i], sc.sizes[i] = f, uint16(size)
	}
	return sc, nil
}

func segsOf(size uint16) int { return (int(size) + npqm.SegmentBytes - 1) / npqm.SegmentBytes }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a time.Duration, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a.Nanoseconds()) / float64(b)
}

// --- ring ---

// ringCmd is sized like the engine's ring command (a kind, a flow, a
// payload slice, an argument and a completion pointer).
type ringCmd struct {
	kind uint8
	flow uint32
	data []byte
	arg  int
	co   *int
}

type ringCost struct{ pushNs, popNsPerCmd float64 }

// replayRing pushes each step's commands (one per arrival plus one
// dequeue command per shard) and pops them in batches of batchMax.
func replayRing(sc *script, p pattern) (ringCost, error) {
	r, err := ring.New[ringCmd](ringCap)
	if err != nil {
		return ringCost{}, err
	}
	buf := make([]ringCmd, batchMax)
	var push, pop time.Duration
	var cmds int
	at := p.prefill
	for s := 0; s < p.steps; s++ {
		t0 := time.Now()
		for i := 0; i < p.offer; i++ {
			if err := r.Push(ringCmd{flow: sc.flows[at+i], arg: int(sc.sizes[at+i])}); err != nil {
				return ringCost{}, err
			}
		}
		for i := 0; i < numShards; i++ {
			if err := r.Push(ringCmd{kind: 1, arg: p.serve / numShards}); err != nil {
				return ringCost{}, err
			}
		}
		t1 := time.Now()
		for {
			n := r.PopBatch(buf)
			if n == 0 {
				break
			}
			cmds += n
		}
		pop += time.Since(t1)
		push += t1.Sub(t0)
		at += p.offer
	}
	return ringCost{pushNs: ratio(push, cmds), popNsPerCmd: ratio(pop, cmds)}, nil
}

// --- segstore ---

type chain struct{ head, tail, n int32 }

type segstoreCost struct{ allocNs, freeNs, lendReturnNs float64 }

// replaySegstore allocates each arrival's segment run and gives back each
// served packet's chain, once through FreeN (the copy path) and once
// through Lend/ReturnLent (the view path). Linking the run is the queue
// layer's work and is not timed here.
func replaySegstore(sc *script, p pattern, pool int) (segstoreCost, error) {
	var cost segstoreCost
	for pass := 0; pass < 2; pass++ {
		st, err := segstore.New(segstore.Config{NumSegments: pool, SegmentBytes: npqm.SegmentBytes})
		if err != nil {
			return cost, err
		}
		c := st.NewCache()
		next := c.View().Next
		fifo := make([]chain, 0, len(sc.flows))
		head := 0
		const maxSegs = 24
		runs := make([]int32, max(p.offer, 1)*maxSegs)
		var alloc, free time.Duration
		var allocSegs, freeSegs int
		resident := 0
		// giveBack returns the n oldest chains, and goes on while the pool
		// lacks room for need more segments (standing in for push-out).
		giveBack := func(n, need int) {
			t0 := time.Now()
			for ; (n > 0 || resident+need > pool) && head < len(fifo); n-- {
				ch := fifo[head]
				head++
				if pass == 0 {
					c.FreeN(ch.head, ch.tail, ch.n)
				} else {
					c.Lend(ch.n)
					c.ReturnLent(ch.head, ch.tail, ch.n)
				}
				c.Publish()
				freeSegs += int(ch.n)
				resident -= int(ch.n)
			}
			free += time.Since(t0)
		}
		// take allocates the runs of arrivals [from, to), at most p.offer of
		// them. Only the AllocN calls are timed; linking a run is the queue
		// layer's work.
		take := func(from, to int) error {
			t0 := time.Now()
			for i := from; i < to; i++ {
				n := segsOf(sc.sizes[i])
				r := runs[(i-from)*maxSegs:][:n]
				if got := c.AllocN(r); got != n {
					return fmt.Errorf("segstore replay: AllocN gave %d of %d", got, n)
				}
				c.Publish()
				allocSegs += n
			}
			alloc += time.Since(t0)
			for i := from; i < to; i++ {
				n := segsOf(sc.sizes[i])
				r := runs[(i-from)*maxSegs:][:n]
				for k := 0; k < n-1; k++ {
					next[r[k]] = r[k+1]
				}
				fifo = append(fifo, chain{r[0], r[n-1], int32(n)})
				resident += n
			}
			return nil
		}
		for from := 0; from < p.prefill; from += p.offer {
			if err := take(from, min(from+p.offer, p.prefill)); err != nil {
				return cost, err
			}
		}
		alloc, allocSegs = 0, 0
		at := p.prefill
		for s := 0; s < p.steps; s++ {
			need := 0
			for i := at; i < at+p.offer; i++ {
				need += segsOf(sc.sizes[i])
			}
			giveBack(0, need)
			if err := take(at, at+p.offer); err != nil {
				return cost, err
			}
			giveBack(p.serve, 0)
			at += p.offer
		}
		if pass == 0 {
			cost.allocNs, cost.freeNs = ratio(alloc, allocSegs), ratio(free, freeSegs)
		} else {
			cost.lendReturnNs = ratio(free, freeSegs)
		}
	}
	return cost, nil
}

// --- queue ---

type queueCost struct {
	enqueueNs, dequeueNs float64 // per packet: copy pass, or reserve/commit and view
	pushoutNs            float64 // per pushed-out packet
	pushouts, enqueued   int
	delivered            int
	segsPerPkt           float64
	// admits is what the admission policy would have been shown for each
	// arrival, for replayPolicy.
	admits []admitArg
}

type admitArg struct {
	flow        uint32
	need        int
	qsegs, free int
}

// replayQueue runs the pattern through one queue.Manager over its own
// segment store. view selects ReservePacket/Commit ingest with
// DequeuePacketView/ViewReleaser delivery, else EnqueuePacket with
// DequeuePacketAppend. Service is oldest arrival first. When the pool
// cannot take a step's arrivals, head packets of the longest queue are
// pushed out first, as LQD does, and timed apart.
func replayQueue(sc *script, p pattern, pool int, view, tracking, recordAdmits bool, template []byte) (queueCost, error) {
	var cost queueCost
	st, err := segstore.New(segstore.Config{NumSegments: pool, SegmentBytes: npqm.SegmentBytes, StoreData: true})
	if err != nil {
		return cost, err
	}
	m, err := queue.NewWithStore(queue.Config{NumQueues: numFlows, NumSegments: pool, StoreData: true}, st.NewCache())
	if err != nil {
		return cost, err
	}
	m.SetLongestTracking(tracking)
	if recordAdmits {
		cost.admits = make([]admitArg, 0, p.steps*p.offer)
	}
	var fill filler
	fill.fn = fill.fill
	buf := make([]byte, 0, len(template))
	var rel queue.ViewReleaser
	var enq, deq, evict time.Duration
	var segs int
	head := 0 // next entry of sc.flows to serve: arrival order is service order

	offer := func(from, to int) error {
		t0 := time.Now()
		for i := from; i < to; i++ {
			q, data := queue.QueueID(sc.flows[i]), template[:sc.sizes[i]]
			if !view {
				if _, err := m.EnqueuePacket(q, data); err != nil {
					return err
				}
				continue
			}
			w, err := m.ReservePacket(q, len(data))
			if err != nil {
				return err
			}
			fill.src, fill.off = data, 0
			w.Range(fill.fn)
			if err := w.Commit(); err != nil {
				return err
			}
		}
		enq += time.Since(t0)
		cost.enqueued += to - from
		return nil
	}
	serve := func(n, limit int) {
		t0 := time.Now()
		for ; n > 0 && head < limit; head++ {
			q := queue.QueueID(sc.flows[head])
			if l, _ := m.Len(q); l == 0 {
				continue // that packet was pushed out
			}
			if view {
				v, err := m.DequeuePacketView(q)
				if err != nil {
					continue
				}
				segs += v.Segments()
				rel.Add(v)
			} else {
				var ns int
				buf, ns, _ = m.DequeuePacketAppend(q, buf[:0])
				segs += ns
			}
			cost.delivered++
			n--
		}
		rel.Flush()
		deq += time.Since(t0)
	}

	if err := offer(0, p.prefill); err != nil {
		return cost, fmt.Errorf("queue replay prefill: %w", err)
	}
	enq, cost.enqueued = 0, 0
	at := p.prefill
	for s := 0; s < p.steps; s++ {
		need := 0
		for i := at; i < at+p.offer; i++ {
			n := segsOf(sc.sizes[i])
			if recordAdmits {
				l, _ := m.Len(queue.QueueID(sc.flows[i]))
				cost.admits = append(cost.admits, admitArg{sc.flows[i], n, l, m.FreeSegments() - need})
			}
			need += n
		}
		if m.AvailSegments() < need {
			t0 := time.Now()
			for m.AvailSegments() < need {
				if _, _, err := m.PushOutLongest(); err != nil {
					return cost, fmt.Errorf("queue replay push-out: %w", err)
				}
				cost.pushouts++
			}
			evict += time.Since(t0)
		}
		if err := offer(at, at+p.offer); err != nil {
			return cost, fmt.Errorf("queue replay step %d: %w", s, err)
		}
		at += p.offer
		serve(p.serve, at)
	}
	if err := m.CheckInvariants(); err != nil {
		return cost, fmt.Errorf("queue replay: %w", err)
	}
	cost.enqueueNs = ratio(enq, cost.enqueued)
	cost.dequeueNs = ratio(deq, cost.delivered)
	cost.pushoutNs = ratio(evict, cost.pushouts)
	if cost.delivered > 0 {
		cost.segsPerPkt = float64(segs) / float64(cost.delivered)
	}
	return cost, nil
}

// --- policy ---

var verdictSink policy.Verdict

// replayPolicy shows an LQD admission instance the recorded arrivals.
func replayPolicy(admits []admitArg, pool int) (float64, error) {
	adm, err := policy.New(policy.Config{Kind: policy.KindLQD})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, a := range admits {
		verdictSink = adm.Admit(a.flow, a.need,
			policy.QueueState{Segments: a.qsegs},
			policy.PoolState{Free: max(a.free, 0), Capacity: pool})
	}
	return ratio(time.Since(t0), len(admits)), nil
}

// --- sched ---

// schedModel is the bench-side sched.Hierarchy and leaf sched.Entity: the
// flow table the engine's shard keeps, reduced to what the disciplines
// read. Per-flow packet lengths live in a slab of singly linked entries so
// HeadBytes is exact under IMIX.
type schedModel struct {
	w       *workload
	next    []int32
	prev    []int32
	deficit []int64
	qhead   []int32 // per flow: first length entry, or -1
	qtail   []int32
	lenNext []int32 // length slab links / free list
	lenVal  []int32
	free    int32
}

func newSchedModel(w *workload, capacity int) *schedModel {
	m := &schedModel{
		w:    w,
		next: make([]int32, numFlows), prev: make([]int32, numFlows),
		deficit: make([]int64, numFlows),
		qhead:   make([]int32, numFlows), qtail: make([]int32, numFlows),
		lenNext: make([]int32, capacity), lenVal: make([]int32, capacity),
	}
	for i := range m.next {
		m.next[i], m.prev[i], m.qhead[i], m.qtail[i] = sched.None, sched.None, -1, -1
	}
	for i := range m.lenNext {
		m.lenNext[i] = int32(i) + 1
	}
	m.lenNext[capacity-1] = -1
	return m
}

func (m *schedModel) Next(id int32) int32          { return m.next[id] }
func (m *schedModel) SetNext(id, n int32)          { m.next[id] = n }
func (m *schedModel) Prev(id int32) int32          { return m.prev[id] }
func (m *schedModel) SetPrev(id, p int32)          { m.prev[id] = p }
func (m *schedModel) Weight(int32) int64           { return 1 }
func (m *schedModel) Deficit(id int32) int64       { return m.deficit[id] }
func (m *schedModel) SetDeficit(id int32, d int64) { m.deficit[id] = d }
func (m *schedModel) Audit(int32, int64)           {}
func (m *schedModel) HeadBytes(id int32) (int64, bool) {
	if h := m.qhead[id]; h >= 0 {
		return int64(m.lenVal[h]), true
	}
	return 0, false
}

func (m *schedModel) Params(int) sched.Params { return sched.Params{Kind: policy.EgressWRR} }
func (m *schedModel) nodeWeight(level int, id int32) int64 {
	ws := m.w.schedWeights[level]
	return ws[int(id)%len(ws)]
}
func (m *schedModel) LeafParams() sched.Params {
	if m.w.leafDRR {
		return sched.Params{Kind: policy.EgressDRR, Quantum: 512}
	}
	return sched.Params{Kind: policy.EgressRR}
}
func (m *schedModel) Leaf() sched.Entity          { return m }
func (m *schedModel) AuditNode(int, int32, int64) {}

// hierarchy adapts schedModel to sched.Hierarchy: Entity.Weight and
// Hierarchy.Weight share a name with different signatures.
type hierarchy struct{ *schedModel }

func (h hierarchy) Weight(level int, id int32) int64 { return h.nodeWeight(level, id) }

func (m *schedModel) push(flow uint32, size int32) (wasEmpty bool) {
	e := m.free
	m.free = m.lenNext[e]
	m.lenVal[e], m.lenNext[e] = size, -1
	if t := m.qtail[flow]; t >= 0 {
		m.lenNext[t] = e
	} else {
		m.qhead[flow] = e
		wasEmpty = true
	}
	m.qtail[flow] = e
	return wasEmpty
}

func (m *schedModel) pop(flow int32) (size int32, nowEmpty bool) {
	e := m.qhead[flow]
	size = m.lenVal[e]
	m.qhead[flow] = m.lenNext[e]
	if m.qhead[flow] < 0 {
		m.qtail[flow] = -1
		nowEmpty = true
	}
	m.lenNext[e] = m.free
	m.free = e
	return size, nowEmpty
}

type schedCost struct {
	activateNs, pickNs, chargeNs float64
	activations, picks           int
}

// replaySched drives a sched.Stack at the workload's depth and widths with
// the activate / pick / charge / deactivate sequence the pattern produces.
// Arrivals beyond the pool are tail-dropped: the stack never sees them,
// as it never sees a packet LQD refused.
//
// Activate calls are timed in blocks. Pick, Charge and Deactivate alternate
// one call at a time, so each is timed on its own and the cost of the
// clock read inside the interval (clockNs) is taken off; at flat-RR speeds
// that leaves them good to a few ns. sched.activate_ns is the mean over
// Activate and Deactivate calls.
func replaySched(w *workload, sc *script, p pattern, pool int, clockNs float64) schedCost {
	m := newSchedModel(w, pool+p.offer+1)
	var st sched.Stack
	st.Init(hierarchy{m}, w.schedWidths)
	depth := len(w.schedWidths)
	pathOf := func(flow int32, buf []int32) []int32 {
		if depth == 0 {
			return buf
		}
		tenant, class := flow%8, (flow/8)%8
		return append(buf, tenant, tenant*8+class)
	}
	var pb [2]int32
	var act, deact, pick, charge time.Duration
	var cost schedCost
	var deacts int
	resident := 0
	toActivate := make([]int32, 0, p.offer)
	// offer queues the arrivals, then activates the flows that were idle in
	// one timed block; the length-slab bookkeeping stays outside it.
	offer := func(from, to int) {
		for from < to {
			end := min(from+p.offer, to)
			toActivate = toActivate[:0]
			for i := from; i < end; i++ {
				n := segsOf(sc.sizes[i])
				if resident+n > pool {
					continue
				}
				resident += n
				if m.push(sc.flows[i], int32(sc.sizes[i])) {
					toActivate = append(toActivate, int32(sc.flows[i]))
				}
			}
			t0 := time.Now()
			for _, f := range toActivate {
				st.Activate(f, pathOf(f, pb[:0]))
			}
			act += time.Since(t0)
			cost.activations += len(toActivate)
			from = end
		}
	}
	offer(0, p.prefill)
	act, cost.activations = 0, 0
	base := time.Now()
	at := p.prefill
	for s := 0; s < p.steps; s++ {
		offer(at, at+p.offer)
		at += p.offer
		for n := 0; n < p.serve; n++ {
			t0 := time.Since(base)
			leaf, debit, ok := st.Pick()
			t1 := time.Since(base)
			if !ok {
				break
			}
			pick += t1 - t0
			cost.picks++
			size, empty := m.pop(leaf)
			resident -= segsOf(uint16(size))
			if debit != 0 {
				m.deficit[leaf] -= debit
			}
			path := pathOf(leaf, pb[:0])
			t2 := time.Since(base)
			st.Charge(path, int64(size))
			t3 := time.Since(base)
			charge += t3 - t2
			if empty {
				st.Deactivate(leaf, path)
				deact += time.Since(base) - t3
				deacts++
			}
		}
	}
	// Each single-call interval holds one clock read; take it off.
	net := func(d time.Duration, calls int) float64 {
		return max(0, float64(d.Nanoseconds())-clockNs*float64(calls))
	}
	if cost.picks > 0 {
		cost.pickNs = net(pick, cost.picks) / float64(cost.picks)
		cost.chargeNs = net(charge, cost.picks) / float64(cost.picks)
	}
	if n := cost.activations + deacts; n > 0 {
		cost.activateNs = (float64(act.Nanoseconds()) + net(deact, deacts)) / float64(n)
	}
	cost.activations += deacts
	return cost
}

// --- engine workers (ring datapath only) ---

type workerStats struct {
	busyShareMax float64
	stealBatches uint64
}

// probeWorkers runs the pattern against internal/engine directly, because
// the per-shard worker accounting (ShardStats) is not on the facade.
func probeWorkers(w *workload, sc *script, p pattern, template []byte) (workerStats, error) {
	var ws workerStats
	e, err := engine.New(engine.Config{
		Shards: numShards, NumFlows: numFlows, NumSegments: w.pool, StoreData: true,
		Admission: w.admission, Egress: w.egress, RingCapacity: ringCap,
	})
	if err != nil {
		return ws, err
	}
	if err := e.Start(); err != nil {
		return ws, err
	}
	at := 0
	for s := 0; s < p.steps && at+p.offer <= len(sc.flows); s++ {
		for i := at; i < at+p.offer; i++ {
			if err := e.EnqueueAsync(sc.flows[i], template[:sc.sizes[i]]); err != nil {
				return ws, err
			}
		}
		at += p.offer
		for _, d := range e.DequeueNextBatch(p.serve) {
			e.ReleaseBuffer(d.Data)
		}
	}
	if err := e.Drain(); err != nil {
		return ws, err
	}
	var busy, busiest int64
	for _, s := range e.ShardStats() {
		busy += s.WorkerBusyNs
		busiest = max(busiest, s.WorkerBusyNs)
		ws.stealBatches += s.StealBatches
	}
	if busy > 0 {
		ws.busyShareMax = float64(busiest) / float64(busy)
	}
	return ws, e.Close()
}
