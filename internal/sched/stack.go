package sched

// Stack composes an arbitrary number of Levels into one scheduling
// hierarchy over a single leaf population. Level knows how to rotate one
// list of members; Stack knows how those lists nest: every intermediate
// *node* (a tenant, a class — whatever the caller's tiers mean) owns a
// child Level arbitrating the next tier down, and the leaves (flows) sit
// on the innermost Levels. A Stack of depth 0 is the flat case — the
// root Level arbitrates leaves directly — so the same pick/activate/
// deactivate code path serves 1-, 2- and N-level configurations, and a
// flat configuration pays nothing for the machinery.
//
// Node addressing is dense and positional: a node at level k is a
// composite index parent*width(k) + unit, so the node spaces are plain
// slices (8 tenants × 8 classes = 8 level-0 nodes and 64 level-1 nodes)
// and a node's links sit at its index in its level's []Link — the same
// no-allocation discipline Level imposes on its members. The leaves'
// links are one more table, indexed by leaf id: handed in with
// ShareLeaves (the engine hands every stack it builds its one flow-indexed
// table, so a flow moving between ports keeps its entry), or grown by
// Activate when nothing was handed in. A node is on
// its parent's rotation iff it has backlogged descendants; activation
// and deactivation cascade outward only while a list transitions
// between empty and non-empty, so the common case stays O(1).
//
// Configuration — discipline parameters per level, node weights, the
// leaf Entity, whether auditing is on — comes from the Hierarchy
// interface, but the Stack reads it only at Init and Refresh and keeps a
// copy: a pick, activate, deactivate or charge makes no Hierarchy call
// at all. A caller that changes anything the Hierarchy reports calls
// Refresh (Reset does) before the next operation; until then the Stack
// keeps scheduling by the configuration it last read.

import "npqm/internal/policy"

// Hierarchy supplies a Stack's configuration and its leaf population.
// The Stack calls it only from Init and Refresh.
type Hierarchy interface {
	// Params returns the discipline of intermediate level k (0 is the
	// outermost).
	Params(level int) Params
	// Weight returns node id's scheduling weight at level k (≥ 1). The
	// id is the composite node index; implementations typically key
	// weights by id % width.
	Weight(level int, id int32) int64
	// LeafParams returns the leaf (flow) level's discipline.
	LeafParams() Params
	// Leaf returns the Entity managing the leaf population's weights and
	// deficits.
	Leaf() Entity
	// AuditNode mirrors Entity.Audit for intermediate nodes: it
	// accumulates granted/forfeited service entitlement at level k for
	// the conservation property. Called only while Params(k).Audit is
	// set.
	AuditNode(level int, id int32, delta int64)
}

// node is one intermediate node's dense state apart from its links: its
// own DRR deficit, its weight as last read from the Hierarchy, and the
// child Level arbitrating the tier below it.
type node struct {
	deficit int64
	weight  int64
	child   Level
}

// nodeEntity adapts one intermediate level's node slice to the Entity
// interface, so a parent Level can rotate over it. Pointer-shaped:
// Stack hands out &st.ents[k].
type nodeEntity struct {
	st  *Stack
	lvl int32
}

// Stack is one scheduling unit's hierarchy state: the root Level, the
// per-level node and link slices, the leaves' links, the Hierarchy it was
// initialized against and the configuration last read from it. The zero
// value is not ready (Init builds it); a depth-0 Stack is ready and flat.
// Not safe for concurrent use — the caller provides the critical section.
type Stack struct {
	h      Hierarchy
	root   Level
	nodes  [][]node
	links  [][]Link // per intermediate level, beside nodes
	leaves []Link   // indexed by leaf id; see ShareLeaves
	ents   []nodeEntity
	params []Params // per intermediate level, as of the last Refresh
	leafP  Params
	leaf   Entity
}

// Init builds the stack: counts[k] is the (composite) node count of
// intermediate level k, outermost first; an empty counts is the flat
// configuration. All nodes start unlinked with zero deficit, and the
// configuration is read as Refresh reads it.
func (st *Stack) Init(h Hierarchy, counts []int32) {
	st.h = h
	st.nodes = make([][]node, len(counts))
	st.links = make([][]Link, len(counts))
	st.ents = make([]nodeEntity, len(counts))
	st.params = make([]Params, len(counts))
	for k, n := range counts {
		st.nodes[k] = make([]node, n)
		st.links[k] = unlinked(make([]Link, n))
		st.ents[k] = nodeEntity{st: st, lvl: int32(k)}
	}
	st.Refresh()
}

// ShareLeaves makes links the leaves' link table: leaf id's links are
// links[id]. The caller sizes it to the whole leaf population and sets
// every entry to {None, None}; Stacks may share one table as long as a
// leaf is active on at most one of them. Call it before the first
// Activate. A Stack never handed a table grows its own.
func (st *Stack) ShareLeaves(links []Link) { st.leaves = links }

// unlinked sets every link in ln to None and returns it.
func unlinked(ln []Link) []Link {
	for i := range ln {
		ln[i] = Link{None, None}
	}
	return ln
}

// Refresh re-reads the configuration from the Hierarchy: every level's
// Params, the leaf Params and Entity, and every node's weight. Rotation,
// visit and deficit state are untouched. Call it after changing anything
// the Hierarchy reports; the Stack does not see the change until then.
func (st *Stack) Refresh() {
	st.leafP, st.leaf = st.h.LeafParams(), st.h.Leaf()
	for k := range st.nodes {
		st.params[k] = st.h.Params(k)
		for i := range st.nodes[k] {
			st.nodes[k][i].weight = st.h.Weight(k, int32(i))
		}
	}
}

// Ready reports whether Init has run (a flat stack is ready too).
func (st *Stack) Ready() bool { return st.h != nil }

// Depth returns the number of intermediate levels (0 = flat).
func (st *Stack) Depth() int { return len(st.nodes) }

// Width returns the node count of intermediate level k.
func (st *Stack) Width(level int) int { return len(st.nodes[level]) }

// Root returns the outermost rotation (over level-0 nodes, or leaves
// when flat), for invariant checks.
func (st *Stack) Root() *Level { return &st.root }

// Child returns node id's child Level at level k — the rotation over
// level k+1 nodes, or over leaves when k is the innermost level.
func (st *Stack) Child(level int, id int32) *Level { return &st.nodes[level][id].child }

// NodeLinked reports whether node id at level k is on its parent's
// rotation.
func (st *Stack) NodeLinked(level int, id int32) bool { return st.links[level][id].Next != None }

// NodeDeficit returns node id's banked DRR byte credit at level k.
func (st *Stack) NodeDeficit(level int, id int32) int64 { return st.nodes[level][id].deficit }

// Links returns the link table of level k's nodes, or the leaves' table
// when k is the depth, for invariant walks.
func (st *Stack) Links(level int) []Link {
	if level == len(st.links) {
		return st.leaves
	}
	return st.links[level]
}

// --- Entity over one intermediate level's nodes ---

func (ne *nodeEntity) Weight(id int32) int64 { return ne.st.nodes[ne.lvl][id].weight }

func (ne *nodeEntity) Deficit(id int32) int64 { return ne.st.nodes[ne.lvl][id].deficit }
func (ne *nodeEntity) SetDeficit(id int32, d int64) {
	ne.st.nodes[ne.lvl][id].deficit = d
}

// HeadBytes prices a node for its parent's DRR fit check: the head
// packet of the leaf the node's subtree would serve next, found by
// peeking down the hierarchy. Exact while every inner rotation is
// RR/Prio/WRR; best-effort under inner DRR (the banking loop may
// advance past the peeked member) — accounting stays exact regardless,
// because callers charge intermediate deficits with the bytes actually
// served (Charge), never with this estimate.
func (ne *nodeEntity) HeadBytes(id int32) (int64, bool) {
	st := ne.st
	leaf, ok := st.peekFrom(&st.nodes[ne.lvl][id].child, int(ne.lvl)+1)
	if !ok {
		return 0, false
	}
	return st.leaf.HeadBytes(leaf)
}

func (ne *nodeEntity) Audit(id int32, delta int64) { ne.st.h.AuditNode(int(ne.lvl), id, delta) }

// --- hierarchy operations ---

// Pick runs the hierarchy top-down and returns the leaf the composed
// disciplines serve next, plus the *leaf-level* DRR byte debit to
// charge if a packet is actually served. Intermediate DRR debits are
// not returned: their fit checks price on peeked estimates, so callers
// charge those levels with the bytes actually served via Charge — the
// charge lands if and only if the packet did. ok is false when the
// stack is empty.
func (st *Stack) Pick() (int32, int64, bool) {
	n := len(st.nodes)
	if n == 0 {
		return st.root.Pick(st.leafP, st.leaves, st.leaf)
	}
	id, _, ok := st.root.Pick(st.params[0], st.links[0], &st.ents[0])
	if !ok {
		return None, 0, false
	}
	for k := 1; k < n; k++ {
		id, _, ok = st.nodes[k-1][id].child.Pick(st.params[k], st.links[k], &st.ents[k])
		if !ok {
			return None, 0, false // unreachable: a linked node has descendants
		}
	}
	return st.nodes[n-1][id].child.Pick(st.leafP, st.leaves, st.leaf)
}

// Peek returns the leaf the next Pick would serve, found by Level.Peek at
// every depth, without advancing any rotation state. It is exact while
// every level runs RR, Prio or WRR; under DRR it is the member of the
// open visit, which Pick may move past if its deficit does not cover the
// head packet (see Level.Peek). ok is false when the stack is empty.
func (st *Stack) Peek() (int32, bool) { return st.peekFrom(&st.root, 0) }

// peekFrom peeks down from l, the rotation over level k's nodes (over the
// leaves when k is the depth), to the leaf it would serve.
func (st *Stack) peekFrom(l *Level, k int) (int32, bool) {
	for ; k < len(st.nodes); k++ {
		id, ok := l.Peek(st.params[k], st.links[k])
		if !ok {
			return None, false
		}
		l = &st.nodes[k][id].child
	}
	return l.Peek(st.leafP, st.leaves)
}

// Activate links leaf into the hierarchy along path (path[k] is the
// composite node index at level k; empty when flat). The cascade stops
// at the first list that was already non-empty — the node above it is
// already linked.
func (st *Stack) Activate(leaf int32, path []int32) {
	if int(leaf) >= len(st.leaves) {
		// A table of the Stack's own: grow it, at least doubling.
		grown := unlinked(make([]Link, max(int(leaf)+1, 2*len(st.leaves))))
		copy(grown, st.leaves)
		st.leaves = grown
	}
	n := len(st.nodes)
	if n == 0 {
		st.root.Activate(st.leaves, leaf)
		return
	}
	l := &st.nodes[n-1][path[n-1]].child
	l.Activate(st.leaves, leaf)
	if l.Count() > 1 {
		return
	}
	for k := n - 1; k > 0; k-- {
		l = &st.nodes[k-1][path[k-1]].child
		l.Activate(st.links[k], path[k])
		if l.Count() > 1 {
			return
		}
	}
	st.root.Activate(st.links[0], path[0])
}

// Deactivate unlinks leaf from the hierarchy along path. Each list a
// removal empties takes its node off the rotation above, with Level's
// Deactivate semantics applying at every level — open visits end with
// their unused credit refunded to the audit, banked positive deficit is
// forfeited, debt survives.
func (st *Stack) Deactivate(leaf int32, path []int32) {
	n := len(st.nodes)
	if n == 0 {
		st.root.Deactivate(st.leafP, st.leaves, st.leaf, leaf)
		return
	}
	l := &st.nodes[n-1][path[n-1]].child
	l.Deactivate(st.leafP, st.leaves, st.leaf, leaf)
	if l.Count() > 0 {
		return
	}
	for k := n - 1; k > 0; k-- {
		l = &st.nodes[k-1][path[k-1]].child
		l.Deactivate(st.params[k], st.links[k], &st.ents[k], path[k])
		if l.Count() > 0 {
			return
		}
	}
	st.root.Deactivate(st.params[0], st.links[0], &st.ents[0], path[0])
}

// Charge debits bytes actually served under path against every
// intermediate DRR level's node deficit. The leaf-level debit is the
// caller's (Pick returned it); packet-granular levels are untouched.
func (st *Stack) Charge(path []int32, bytes int64) {
	for k := range st.nodes {
		if st.params[k].Kind == policy.EgressDRR {
			st.nodes[k][path[k]].deficit -= bytes
		}
	}
}

// Reset ends every open visit without refunds, zeroes every
// intermediate deficit and re-reads the configuration (Refresh) — the
// discipline-replacement reset (the caller resets leaf deficits and
// audit state wholesale alongside). Membership survives: backlogged
// subtrees stay linked across a discipline change.
func (st *Stack) Reset() {
	st.Refresh()
	st.root.ResetRotation()
	for k := range st.nodes {
		for i := range st.nodes[k] {
			st.nodes[k][i].child.ResetRotation()
			st.nodes[k][i].deficit = 0
		}
	}
}
