package engine

import (
	"fmt"
	"slices"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/sched"
	"npqm/internal/stats"
)

// Counters are the cumulative traffic and policy counters, since New — the
// one declaration of each: every shard keeps a live block (written by
// shard.joined, shard.left, the exits of Engine.arrive and the copy charge,
// shard.noteCopied), ShardStat carries a shard's copy and Stats their sum.
//
// The books balance two ways. Every arrival meets exactly one fate —
// enqueued, dropped by the admission policy, rejected for want of room, or
// turned away as the caller's own error, which no counter records — and a
// round an LQD arrival retries internally after a push-out or a
// stranded-cache fetch is none of them. Every enqueued segment was dequeued,
// pushed out, or is resident: EnqueuedSegments = DequeuedSegments +
// PushedOutSegments + QueuedSegments, which is why DeletePacket counts as a
// dequeue.
type Counters struct {
	EnqueuedPackets  uint64
	EnqueuedSegments uint64
	// EnqueuedRuns counts the address-contiguous runs those segments were
	// chained as when their packets were built: EnqueuedSegments/EnqueuedRuns
	// is the mean run length, the measure of how fragmented the free store
	// hands out chains. The queue manager keeps this one
	// (queue.Manager.FillRuns); it is filled in when a shard is read.
	EnqueuedRuns uint64
	// EnqueuedWhole counts the packets built on a whole chain of their size
	// reused as it stands, links and run words kept, rather than carved and
	// built segment by segment: against EnqueuedPackets it is the share that
	// took the free store's fast path. Kept by the queue manager
	// (queue.Manager.FillWhole) and filled in like EnqueuedRuns.
	EnqueuedWhole    uint64
	DequeuedPackets  uint64
	DequeuedSegments uint64
	// Rejected counts enqueues and reservations refused for want of room:
	// the pool exhausted or the flow at its cap.
	Rejected uint64
	// Dropped arrivals were refused by the admission policy and never
	// buffered; pushed-out packets were buffered and then evicted by LQD.
	DroppedPackets    uint64
	DroppedSegments   uint64
	PushedOutPackets  uint64
	PushedOutSegments uint64
	// CopiedBytes counts payload bytes that crossed a copying datapath:
	// buffer-based enqueues copy in, buffer-based dequeues copy out, and
	// each charges the bytes it copied. The zero-copy paths — view
	// delivery and write-in-place ingest — never add to it, so a
	// deployment that has fully converted sees this counter stand still
	// while traffic flows.
	CopiedBytes uint64
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.EnqueuedPackets += o.EnqueuedPackets
	c.EnqueuedSegments += o.EnqueuedSegments
	c.EnqueuedRuns += o.EnqueuedRuns
	c.EnqueuedWhole += o.EnqueuedWhole
	c.DequeuedPackets += o.DequeuedPackets
	c.DequeuedSegments += o.DequeuedSegments
	c.Rejected += o.Rejected
	c.DroppedPackets += o.DroppedPackets
	c.DroppedSegments += o.DroppedSegments
	c.PushedOutPackets += o.PushedOutPackets
	c.PushedOutSegments += o.PushedOutSegments
	c.CopiedBytes += o.CopiedBytes
}

// Stats is an aggregate snapshot of engine activity and occupancy across
// all shards.
type Stats struct {
	Shards int

	// Counters are summed over the shards.
	Counters

	// Transmit side (ports served through ServeViews). Packets the pacer
	// delivers are also counted in DequeuedPackets/Segments — the
	// transmit counters slice that total by delivery path and add the
	// pacing signal. See PortStats for the per-port breakdown.
	TransmittedPackets uint64
	TransmittedBytes   uint64
	Throttled          uint64 // pacer parks waiting for shaper tokens

	// CoalescedWakes counts pacer notifies absorbed by an already-pending
	// wake instead of delivered. High values mean the enqueue path is
	// being spared cross-core channel operations.
	CoalescedWakes uint64

	// Occupancy.
	FreeSegments   int   // shared-pool free population (depot + caches)
	QueuedSegments int   // segments currently linked into flow queues
	LentSegments   int   // segments checked out in views and open reservations
	BufferedBytes  int64 // payload bytes across all queued segments
	ActiveFlows    int   // flows with at least one queued segment

	// Residence-time sampling (zero unless Config.ResidenceSample > 0):
	// enqueue→dequeue times of sampled packets, in nanoseconds, merged
	// across shards. Quantiles are bucket upper bounds of a log-scale
	// histogram with four buckets per octave (stats.Histogram): at or above
	// the exact order statistic, by less than 25%, from 1 ns to 18 minutes.
	// The maximum is exact.
	ResidenceSamples uint64
	ResidenceP50Ns   float64
	ResidenceP99Ns   float64
	ResidenceMaxNs   float64
}

// ShardStat is the per-shard slice of Stats, for load-balance inspection.
// Segment memory is shared (there is no per-shard pool), so the occupancy
// columns report what this shard's queues hold of the common pool.
type ShardStat struct {
	Shard int
	Counters
	QueuedSegments int // segments this shard's queues hold
	BufferedBytes  int64
	ActiveFlows    int

	// Worker accounting (zero before Start): the time the shard's worker
	// goroutine spent in its own passes through the shard lock (busy) and
	// waiting for the ring to hold something (idle). Posted enqueues are
	// executed by whoever enters the shard, so busy is not the cost of the
	// shard's posted traffic — only the share nobody else got to first.
	WorkerBusyNs int64
	WorkerIdleNs int64
	// StealBatches is always zero: work stealing is gone.
	//
	// Deprecated: bench shim.
	StealBatches uint64
}

// read copies shard i's row of the books, inside its critical section: the
// one per-shard read behind Stats, ShardStats and CheckInvariants.
func (s *shard) read(i int) ShardStat {
	row := ShardStat{
		Shard:          i,
		Counters:       s.Counters,
		QueuedSegments: s.m.QueuedSegments(),
		BufferedBytes:  int64(s.m.TotalBuffered()),
		ActiveFlows:    s.activeFlows,
		WorkerBusyNs:   s.wBusyNs.Load(),
		WorkerIdleNs:   s.wIdleNs.Load(),
	}
	row.EnqueuedRuns, row.EnqueuedWhole = s.m.FillRuns(), s.m.FillWhole()
	return row
}

// Stats aggregates counters and occupancy across shards. Each shard is
// snapshotted inside its own critical section; the result is consistent per
// shard but not a global atomic cut (concurrent traffic may move between
// shards' snapshots), which is the standard trade for not stopping the
// world.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.shards)}
	var res stats.Histogram
	for i, s := range e.shards {
		var row ShardStat
		e.run(s, func() { row = s.read(i) })
		st.add(row.Counters)
		st.QueuedSegments += row.QueuedSegments
		st.BufferedBytes += row.BufferedBytes
		st.ActiveFlows += row.ActiveFlows
		if s.res != nil {
			res.Merge(&s.res.hist) // lock-free: no reason to hold the shard for it
		}
	}
	for _, p := range e.ports {
		st.TransmittedPackets += p.txPackets.Load()
		st.TransmittedBytes += p.txBytes.Load()
		st.Throttled += p.throttled.Load()
	}
	st.CoalescedWakes = e.pacer.coalesced.Load()
	if e.cfg.ResidenceSample > 0 {
		st.ResidenceSamples = res.N()
		st.ResidenceP50Ns = res.Quantile(0.50)
		st.ResidenceP99Ns = res.Quantile(0.99)
		st.ResidenceMaxNs = res.Max()
	}
	st.FreeSegments = e.store.Free()
	st.LentSegments = e.store.Lent()
	return st
}

// ShardStats returns one entry per shard, for inspecting hash balance.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		e.run(s, func() { out[i] = s.read(i) })
	}
	return out
}

// TierStat is one scheduling unit's slice of the egress statistics: a
// tenant's or a class's, by the tier asked of TierStats.
type TierStat struct {
	Unit        int
	ActiveFlows int // flows with backlog currently mapped to this unit
	Weight      int // the unit's WRR/DRR weight at its level
}

// TierStats returns one entry per unit of tier (the tenants, or the
// classes): how many backlogged flows the unit holds right now (summed
// across shards and ports; consistent per shard, not a global cut) and its
// configured weight. A tier other than the two there are has no units.
// Each shard reads its port stacks: a backlogged flow is a member of its
// innermost node's rotation, and that node's composite index names the
// flow's unit (a flat tier's one unit holds every backlogged flow). The
// cost grows with the nodes of the stacks that hold backlog, not with the
// flows a shard owns.
func (e *Engine) TierStats(tier policy.Tier) []TierStat {
	if tier >= numTiers {
		return nil
	}
	counts := make([]int, e.tierUnits[tier])
	out := make([]TierStat, len(counts))
	for si, s := range e.shards {
		e.run(s, func() {
			if si == 0 {
				for u := range out {
					out[u] = TierStat{Unit: u, Weight: max(1, int(s.eg.tierWeights[tier][u]))}
				}
			}
			s.countTierFlows(tier, counts)
		})
	}
	for u := range out {
		out[u].ActiveFlows = counts[u]
	}
	return out
}

// countTierFlows adds the shard's backlogged flows to counts, by their
// unit in tier. It walks each port stack's rotations down to the innermost
// nodes on them, whose child rotations count their flows. A node at level k
// sits in the composite index of every innermost node under it as
// idx / below % mod, below being the unit counts of the levels inside k
// multiplied.
func (s *shard) countTierFlows(tier policy.Tier, counts []int) {
	k := slices.IndexFunc(s.eg.levels, func(lv levelCfg) bool { return lv.tier == tier })
	if k < 0 {
		counts[0] += s.activeFlows
		return
	}
	inner, mod, below := len(s.eg.levels)-1, s.eg.levels[k].mod, int32(1)
	for _, lv := range s.eg.levels[k+1:] {
		below *= lv.mod
	}
	var walk func(st *sched.Stack, l *sched.Level, level int)
	walk = func(st *sched.Stack, l *sched.Level, level int) {
		ln := st.Links(level)
		for id, i := l.Cursor(), 0; i < l.Count(); id, i = ln[id].Next, i+1 {
			if level == inner {
				counts[id/below%mod] += st.Child(level, id).Count()
			} else {
				walk(st, st.Child(level, id), level+1)
			}
		}
	}
	left := s.activeFlows
	for p := range s.ps {
		if left == 0 {
			break
		}
		if ps := &s.ps[p]; ps.activeFlows > 0 {
			walk(&ps.st, ps.st.Root(), 0)
			left -= ps.activeFlows
		}
	}
}

// CheckInvariants validates every shard's queue discipline, the
// N-level active lists, the shared store's free structures, and the engine-wide
// conservation laws. Every segment is free, queued or lent (checked out in
// a packet view or an open write-in-place reservation), and no segment
// says which: each shard's queue walk and the store's free walk mark the
// segments they meet in one array (queue.Manager.CheckMarking,
// segstore.Store.CheckMarking), a segment met twice is an error, and the
// segments left unmarked must be exactly the lent books (CheckLent). And
// every enqueued segment was either dequeued, pushed out by the admission
// policy, or is still resident (enqueued = dequeued + pushed-out +
// resident; a view's segments count as dequeued from the moment the view
// is produced, and a reservation's count as enqueued only at Commit). Shards are checked
// one critical section at a time, so it is only a consistent global check
// when the engine is quiescent (no EnqueueAsync in flight — entering a
// shard drains only what was posted by then; views released on other
// goroutines included — their release must happen-before the check).
func (e *Engine) CheckInvariants() error {
	var c Counters
	queued := 0
	seen := make([]bool, e.cfg.NumSegments)
	for i, s := range e.shards {
		var err error
		e.run(s, func() {
			if err = s.m.CheckMarking(seen); err == nil {
				err = e.checkActiveLocked(s, i)
			}
			row := s.read(i)
			c.add(row.Counters)
			queued += row.QueuedSegments
		})
		if err != nil {
			return err
		}
	}
	if err := e.store.CheckMarking(seen); err != nil {
		return err
	}
	if err := e.store.CheckLent(seen); err != nil {
		return err
	}
	if c.EnqueuedSegments != c.DequeuedSegments+c.PushedOutSegments+uint64(queued) {
		return fmt.Errorf("engine: segment conservation violated: enqueued %d != dequeued %d + pushed-out %d + resident %d",
			c.EnqueuedSegments, c.DequeuedSegments, c.PushedOutSegments, queued)
	}
	return nil
}

// checkActiveLocked validates the shard's level-stack active lists
// against the queue table, inside the shard's critical section: a flow
// owned by this shard (one row of its table) is linked into exactly one scheduling unit's
// innermost rotation iff it has backlog, every linked node holds
// backlogged descendants, every rotation at every level is a
// well-formed circular ring (walking Count steps closes the cycle with
// prev mirroring next), nodes sit only under their own parent, and
// every per-port counter matches what its lists actually hold — which
// together leave no room for a flow linked under a foreign port, tenant
// or class.
func (e *Engine) checkActiveLocked(s *shard, shardIdx int) error {
	count := 0
	for q, f := range s.flowOf {
		n, _ := s.m.Len(queue.QueueID(q))
		if linked := s.isActive(f); linked != (n > 0) {
			return fmt.Errorf("engine: shard %d flow %d has %d segments but list membership is %v",
				shardIdx, f, n, linked)
		}
		if n > 0 {
			count++
		}
	}
	if count != s.activeFlows {
		return fmt.Errorf("engine: shard %d lists hold %d flows, counter says %d", shardIdx, count, s.activeFlows)
	}
	perPort := 0
	for p := range s.ps {
		ps := &s.ps[p]
		perPort += ps.activeFlows
		if !ps.st.Ready() {
			if ps.activeFlows != 0 {
				return fmt.Errorf("engine: shard %d port %d counts %d flows with no scheduler state",
					shardIdx, p, ps.activeFlows)
			}
			continue
		}
		flows, err := e.checkStackLocked(s, shardIdx, p, ps)
		if err != nil {
			return err
		}
		if flows != ps.activeFlows {
			return fmt.Errorf("engine: shard %d port %d lists hold %d flows, counter says %d",
				shardIdx, p, flows, ps.activeFlows)
		}
		// Every node, walked or not: linked into its parent's rotation
		// iff its own child rotation holds members.
		for k := 0; k < ps.st.Depth(); k++ {
			for idx := 0; idx < ps.st.Width(k); idx++ {
				on := ps.st.NodeLinked(k, int32(idx))
				if on != (ps.st.Child(k, int32(idx)).Count() > 0) {
					return fmt.Errorf("engine: shard %d port %d level %d node %d linked=%v but holds %d members",
						shardIdx, p, k, idx, on, ps.st.Child(k, int32(idx)).Count())
				}
			}
		}
	}
	if perPort != s.activeFlows {
		return fmt.Errorf("engine: shard %d per-port counters sum to %d, total says %d", shardIdx, perPort, s.activeFlows)
	}
	return nil
}

// checkStackLocked walks one scheduling unit's hierarchy from the root,
// verifying every rotation ring it can reach and returning the number
// of flows linked under the unit. level n (the stack depth) is the flow
// level; parent is the composite index of the node whose child ring is
// being walked (unused at the root).
func (e *Engine) checkStackLocked(s *shard, shardIdx, p int, ps *portSched) (int, error) {
	n := ps.st.Depth()
	var walk func(level int, l *sched.Level, parent int32) (int, error)
	walk = func(level int, l *sched.Level, parent int32) (int, error) {
		cnt := l.Count()
		if cnt == 0 {
			return 0, nil
		}
		links := ps.st.Links(level)
		total := 0
		id := l.Cursor()
		for i := 0; i < cnt; i++ {
			if level < n {
				if level > 0 && id/s.eg.levels[level].mod != parent {
					return 0, fmt.Errorf("engine: shard %d port %d level %d node %d sits under parent %d, composite index says %d",
						shardIdx, p, level, id, parent, id/s.eg.levels[level].mod)
				}
				sub, err := walk(level+1, ps.st.Child(level, id), id)
				if err != nil {
					return 0, err
				}
				if sub == 0 {
					return 0, fmt.Errorf("engine: shard %d port %d level %d node %d is linked but holds no flows",
						shardIdx, p, level, id)
				}
				total += sub
			} else {
				fs := &s.flows[id]
				if int(fs.port) != p {
					return 0, fmt.Errorf("engine: shard %d flow %d sits on port %d's list but maps to port %d",
						shardIdx, id, p, fs.port)
				}
				if n > 0 {
					var pb [numTiers]int32
					if path := s.pathOf(uint32(id), pb[:0]); path[n-1] != parent {
						return 0, fmt.Errorf("engine: shard %d flow %d sits under node %d but maps to tenant %d class %d (node %d)",
							shardIdx, id, parent, fs.unit[policy.TierTenant], fs.unit[policy.TierClass], path[n-1])
					}
				}
				total++
			}
			next := links[id].Next
			if next == sched.None || links[next].Prev != id {
				return 0, fmt.Errorf("engine: shard %d port %d level %d ring broken at %d", shardIdx, p, level, id)
			}
			id = next
		}
		if id != l.Cursor() {
			return 0, fmt.Errorf("engine: shard %d port %d level %d ring does not close in %d steps",
				shardIdx, p, level, cnt)
		}
		return total, nil
	}
	return walk(0, ps.st.Root(), sched.None)
}
