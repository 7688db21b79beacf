// Package sched is the engine's egress discipline: Level, one scheduling
// level's rotation state, and Stack, which composes Levels into a
// tenant → class → flow hierarchy. These are the "selective transmission"
// policies the paper's Section 2 motivates ("queues ... should provide the
// means to access certain parts of their structures").
//
// A (shard, port, class, flow) hierarchy with a million flows cannot poll
// a backlog callback over a dense queue index, so Level is index-based:
// members live on an intrusive circular doubly-linked list kept in a dense
// []Link indexed by member id, which the Level reads and writes directly,
// as the paper's MMS does its pointer memory, so activating, deactivating
// and picking are O(1) with no per-member allocation, no maps and no call
// per link. One implementation serves every level and all four
// disciplines (round-robin, strict priority, weighted round-robin, and
// deficit round-robin for variable-length packets) — the levels cannot
// drift apart.
//
// A Level is pure rotation state (cursor, visit credit, priority-min
// cache). The links belong to the Stack (a table per intermediate level,
// one for the leaves, which the engine shares among its stacks); the rest
// of a member's state — weight, DRR deficit, the head packet length and
// the test-only audit hook — is reached through the five methods of the
// Entity interface. Discipline parameters travel in Params per call
// rather than per Level, so thousands of Levels share one copy.
//
// A Stack reads its configuration (each level's Params, node weights,
// the leaf Entity, whether auditing is on) from its Hierarchy at Init and
// Refresh only, never per packet. A caller that changes that
// configuration calls Refresh; until it does, the Stack schedules by what
// it last read.
//
// Audit semantics (tests opt in with Params.Audit): Audit accumulates the
// net service entitlement granted to a member — quantum bytes for DRR,
// visit packets for WRR — with forfeited credit subtracted back out, so
// a conservation property can hold every level to
// served == granted − outstanding, exactly. With Audit off a grant or
// forfeit makes no call.
package sched

import "npqm/internal/policy"

// None is the nil member index: a member whose Next link is None is not
// on any Level's list. Callers initialize their link storage to None.
const None int32 = -1

// Link is one member's place on a Level's ring, indexed by member id.
type Link struct{ Next, Prev int32 }

// minUnknown marks the priority-min cache invalid (the cached minimum
// was deactivated); the next priority pick rescans the list.
const minUnknown int32 = -2

// Entity is the dense per-member state a Level schedules over, apart
// from the links. Members are small non-negative integers indexing the
// caller's storage; the Level never allocates per member.
// Implementations are expected to be pointer-shaped structs so interface
// conversion does not allocate.
type Entity interface {
	// Weight is the member's scheduling weight (≥ 1): packets per visit
	// for WRR, quantum multiplier for DRR.
	Weight(id int32) int64
	// Deficit is the member's banked DRR byte credit (may be negative:
	// debt from an overdraw).
	Deficit(id int32) int64
	SetDeficit(id int32, d int64)
	// HeadBytes reports the byte length of the member's head packet for
	// the DRR fit check; ok is false when no complete packet is
	// available (the caller's dequeue will fail and deactivate it).
	HeadBytes(id int32) (int64, bool)
	// Audit accumulates granted/forfeited service entitlement for the
	// conservation property. Level calls it only under Params.Audit.
	Audit(id int32, delta int64)
}

// Params carries the discipline configuration into each call, so the
// Level itself stays parameter-free and a reconfiguration touches no
// per-Level state beyond ResetRotation.
type Params struct {
	Kind policy.EgressKind
	// Quantum is the DRR byte quantum earned per weight unit per visit.
	Quantum int64
	// Audit makes the Level report grants and forfeits to Entity.Audit
	// (tests); off, it makes no Audit call.
	Audit bool
}

// Level is one scheduling level's rotation state over an intrusive
// member list: RR cursor, WRR/DRR visit credit, and the strict-priority
// minimum cache. The zero value is an empty level. Not safe for
// concurrent use — the caller provides the critical section (in the
// engine, the owning shard's).
type Level struct {
	cursor   int32 // next member to consider; a live member while count > 0
	min      int32 // lowest member id, or minUnknown (priority cache)
	count    int32
	visiting bool  // cursor is mid-visit (WRR packets / DRR grant taken)
	credit   int64 // WRR: packets left in the open visit
}

// Count returns the number of active members.
func (l *Level) Count() int { return int(l.count) }

// Cursor returns the rotation cursor (for invariant checks); only
// meaningful while Count > 0.
func (l *Level) Cursor() int32 { return l.cursor }

// Visiting reports whether a WRR/DRR visit is open on the cursor.
func (l *Level) Visiting() bool { return l.visiting }

// Credit returns the packets left in the open WRR visit.
func (l *Level) Credit() int64 { return l.credit }

// Activate links id into the rotation, just before the cursor — the
// tail of the current cycle, so a newly backlogged member waits one
// full rotation like any other. The caller guarantees id is not
// currently a member.
func (l *Level) Activate(ln []Link, id int32) {
	if l.count == 0 {
		ln[id] = Link{id, id}
		l.cursor = id
		l.min = id
		l.count = 1
		return
	}
	cur := &ln[l.cursor]
	ln[id] = Link{Next: l.cursor, Prev: cur.Prev}
	ln[cur.Prev].Next = id
	cur.Prev = id
	if id < l.min {
		// A minUnknown (-2) cache stays unknown: the compare fails.
		l.min = id
	}
	l.count++
}

// Deactivate unlinks id from the rotation. A member that leaves
// mid-visit ends the visit (refunding unused WRR credit to the audit)
// and forfeits any banked positive deficit — but keeps its debt: a
// member cannot shed what it owes by going briefly idle. The caller
// guarantees id is currently a member; its links are reset to None.
func (l *Level) Deactivate(p Params, ln []Link, e Entity, id int32) {
	if l.visiting && l.cursor == id {
		// The member emptied mid-visit: end the visit now. Leaving it
		// open would let a member that drained and refilled before the
		// next pick resume its old credit and burst past its weight.
		if p.Kind == policy.EgressWRR && p.Audit {
			e.Audit(id, -l.credit)
		}
		l.visiting = false
		l.credit = 0
	}
	if d := e.Deficit(id); d > 0 {
		// Forfeit banked DRR credit, whichever dequeue path emptied the
		// member — otherwise a drained-and-refilled member returns with
		// stale credit and bursts ahead of its weight.
		if p.Audit {
			e.Audit(id, -d)
		}
		e.SetDeficit(id, 0)
	}
	if l.count == 1 {
		l.count = 0
	} else {
		x := ln[id]
		ln[x.Prev].Next = x.Next
		ln[x.Next].Prev = x.Prev
		if l.cursor == id {
			l.cursor = x.Next
		}
		if l.min == id {
			l.min = minUnknown
		}
		l.count--
	}
	ln[id] = Link{None, None}
}

// ResetRotation ends any open visit without refunds; used when the
// discipline itself is being replaced (the caller resets deficits and
// audit state wholesale alongside). Membership survives — backlogged
// members stay backlogged across a discipline change.
func (l *Level) ResetRotation() {
	l.visiting = false
	l.credit = 0
}

// Pick returns the member the discipline serves next, plus the DRR byte
// debit to charge if a packet is actually served (0 for the
// packet-granular disciplines). ok is false when the level is empty.
// The level is work-conserving: whenever a member is active, one is
// returned.
func (l *Level) Pick(p Params, ln []Link, e Entity) (int32, int64, bool) {
	if l.count == 0 {
		return None, 0, false
	}
	switch p.Kind {
	case policy.EgressPrio:
		return l.pickPrio(ln), 0, true
	case policy.EgressWRR:
		return l.pickWRR(p, ln, e), 0, true
	case policy.EgressDRR:
		id, debit := l.pickDRR(p, ln, e)
		return id, debit, true
	default:
		id := l.cursor
		l.cursor = ln[id].Next
		return id, 0, true
	}
}

// Peek returns the member Pick would serve next without advancing any
// rotation state. Exact for RR, Prio and WRR; for DRR it is the current
// visit candidate — a best-effort answer, since the deficit banking loop
// may advance past it (callers using Peek to price a pick must charge
// actual served bytes, which keeps accounting exact regardless).
func (l *Level) Peek(p Params, ln []Link) (int32, bool) {
	if l.count == 0 {
		return None, false
	}
	if p.Kind == policy.EgressPrio {
		// pickPrio only refills the min cache — semantically const.
		return l.pickPrio(ln), true
	}
	return l.cursor, true
}

// pickPrio serves the lowest-numbered member. The minimum is cached and
// maintained O(1) by Activate; deactivating the minimum invalidates the
// cache and the next pick rescans — O(count) once per drained minimum,
// O(1) while the highest-priority member stays busy (the common case).
func (l *Level) pickPrio(ln []Link) int32 {
	if l.min == minUnknown {
		m := l.cursor
		for id := ln[l.cursor].Next; id != l.cursor; id = ln[id].Next {
			if id < m {
				m = id
			}
		}
		l.min = m
	}
	return l.min
}

// pickWRR serves the cursor Weight packets per visit.
func (l *Level) pickWRR(p Params, ln []Link, e Entity) int32 {
	if l.visiting {
		id := l.cursor
		l.credit--
		if l.credit == 0 {
			l.visiting = false
			l.cursor = ln[id].Next
		}
		return id
	}
	id := l.cursor
	w := e.Weight(id)
	if p.Audit {
		e.Audit(id, w)
	}
	if w <= 1 {
		l.cursor = ln[id].Next
		return id
	}
	l.visiting = true
	l.credit = w - 1
	return id
}

// startVisit opens a DRR visit on id: the member earns weight×quantum
// bytes of deficit.
func (l *Level) startVisit(p Params, e Entity, id int32) {
	l.cursor = id
	l.visiting = true
	grant := e.Weight(id) * p.Quantum
	e.SetDeficit(id, e.Deficit(id)+grant)
	if p.Audit {
		e.Audit(id, grant)
	}
}

// pickDRR implements deficit round-robin: each visit a member earns
// weight×quantum bytes of deficit and may send head packets its deficit
// covers; the served packet's bytes are charged by the caller through
// the returned debit, so the charge lands if and only if the packet was
// actually served. The banking loop is bounded: every rotation grants
// at least one quantum to every member, so any head packet is reachable
// within maxPacket/quantum rotations; if a pathological quantum/packet
// ratio exhausts the bound, the candidate is served anyway (work
// conservation) — but still charged, driving its deficit negative
// instead of transmitting for free. The bound is counted in 64 bits: a
// level of 2^20 members would overflow a 32-bit int and skip the loop.
func (l *Level) pickDRR(p Params, ln []Link, e Entity) (int32, int64) {
	if !l.visiting {
		l.startVisit(p, e, l.cursor)
	}
	maxIter := int64(l.count)*2048 + 8
	for iter := int64(0); iter < maxIter; iter++ {
		id := l.cursor
		bytes, ok := e.HeadBytes(id)
		if !ok {
			// No complete packet (raw-segment misuse): serve it debit-free;
			// the caller's dequeue fails and deactivates the member.
			return id, 0
		}
		if bytes <= e.Deficit(id) {
			return id, bytes
		}
		// Not enough deficit: bank it and move the visit on.
		l.startVisit(p, e, ln[id].Next)
	}
	id := l.cursor
	bytes, ok := e.HeadBytes(id)
	if !ok {
		return id, 0
	}
	return id, bytes
}
