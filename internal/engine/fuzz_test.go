package engine

// FuzzEngineCommands: one byte-coded command stream, run on an engine and
// on the reference model (model_test.go), checked after every command.
// runEngine is the harness; the scenario tests write their command streams
// in Go with script.
//
// The engine is a stepped one (clock_test.go): no pacer goroutine, the
// harness serves ports by stepping the pacer. When the stream starts the
// engine, the harness installs the command rings itself and launches no
// workers, so a posted enqueue runs exactly at its shard's next entry —
// the command after it on that shard, or a Drain. Posts pile up on one
// shard at a time: before a command that enters another shard first, or
// whose entries the model cannot name (the picked pulls, batches, the
// pacer, reconfiguration), the harness drains them.
//
// Every command is held to the model's return value and error, word for
// word; a delivered packet to the model's pick, which is also the oldest
// undelivered packet of its flow, payload byte for byte; a pull finds a
// packet exactly when the model holds one. Whenever no post is pending the
// Stats, PortStats (shapers, parks and pauses too) and TierStats books must
// read as the model's,
// CheckInvariants must pass, and the egress audit must balance: served ≡
// granted − outstanding per flow and per node at every level. At the end
// every segment is back in the pool.
//
// Time moves only by cClock, a pacer tick at a time: every port whose
// kick, notify or wheel slot is due is served at each tick, as the model
// serves it.
//
// The fuzzer's first seven bytes configure the engine (see fuzzConfig);
// each command is an opcode byte (an index into fzOps) and its arguments.
// An engine of more than 255 flows takes its flow and size arguments two
// bytes wide, low byte first: a flow past NumFlows is math.MaxUint32, a
// size is the packet's bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"npqm/internal/policy"
	"npqm/internal/queue"
	"npqm/internal/ring"
	"npqm/internal/sched"
	"npqm/internal/segstore"
)

// fzMaxPend is how many posts may wait in one ring.
const fzMaxPend = 64

// The commands, by opcode. A flow argument of NumFlows (mod NumFlows+1)
// names a flow outside the flow space; a size argument b is a packet of
// 1+9b bytes, 255 an empty one. A port argument of NumPorts (mod
// NumPorts+1) is out of range.
const (
	cEnqueue      = iota // flow, size
	cPost                // flow, size: EnqueueAsync
	cBatch               // n-1, then n × (flow, size): EnqueueBatch (n ≤ 8)
	cReserve             // flow, size: ReservePacket, filled
	cSettle              // a: commit (a < 128) or abort open reservation a
	cDequeue             // flow, view: DequeuePacket[View]
	cDequeueBatch        // n-1, n × flow, view: Dequeue[View]Batch (n ≤ 8)
	cNext                // view: DequeueNext[View]
	cNextBatch           // view | max<<1: DequeueNext[View]Batch
	cRelease             // all: the oldest held view, or every one
	cMove                // from, to
	cDelete              // flow
	cLimit               // flow, limit: SetFlowLimit
	cWeight              // flow, a: SetWeight, or SetTierWeight when a ≥ 128
	cRehome              // flow, a: SetFlowPort/Tenant/Class
	cServe               // port | retain<<4: ServeViews, then the pacer settles
	cDrain               // Drain
	cSetEgress           // a, b: SetEgress, same hierarchy
	cRead                // flow: Flow and Len
	cClock               // n: n+1 pacer ticks, the pacer settling at each
	cRate                // port, rate, burst: SetPortRate (see rateArg)
	cPause               // port<<1 | resume: Pause or Resume
	cWeigh               // which, flow or unit, w: SetWeight or SetTierWeight with any weight (see opWeigh)
)

// script is a command stream; past its end every read is 0. The scenario
// tests write theirs in Go with do and rep.
type script []byte

func (b *script) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzConfig reads the engine's shape: shards, admission, pool, the egress
// disciplines and hierarchy, ports, and whether the rings are installed.
func fuzzConfig(in *script) (Config, bool) {
	var c [7]int
	for i := range c {
		c[i] = in.next()
	}
	cfg := Config{Shards: 1 << (c[0] % 3), NumFlows: 12, NumSegments: 32 << (c[2] % 4), NumPorts: 1 + c[5]%3}
	cfg.Admission = []policy.Config{
		{},
		{Kind: policy.KindTailDrop, Limit: 4 + c[1]>>2%29},
		{Kind: policy.KindLQD},
		{Kind: policy.KindRED, MinTh: 0.3, MaxTh: 0.8, MaxP: 0.5, Weight: 0.25, Seed: uint64(c[1])},
	}[c[1]%4]
	cfg.Egress = fuzzEgress(c[3], c[4]>>2, [3][numTiers]int{{1, 1}, {1, 3}, {2, 2}}[c[4]%3])
	return cfg, c[6]&1 != 0
}

// fuzzEgress is a flow-level discipline from a — a 1-byte DRR quantum
// among the choices, which drives picks into the bound-exhaustion
// fallback — and, for every tier with more than one unit, a level whose
// discipline comes from b.
func fuzzEgress(a, b int, units [numTiers]int) policy.EgressConfig {
	eg := policy.EgressConfig{Kind: policy.EgressKind(a % 4), QuantumBytes: [4]int{64, 128, 256, 1}[a>>2%4], DefaultWeight: 1 + a>>4%3}
	for t, n := range units {
		if n > 1 {
			eg = eg.WithLevel(policy.LevelSpec{Tier: policy.Tier(t), Kind: policy.EgressKind(b % 4), Units: n, QuantumBytes: 128 << (b >> 2 % 3)})
			b = b>>2 + a>>6
		}
	}
	return eg
}

// payloadOf is the payload of packet serial: the serial, then a pattern.
func payloadOf(p mPkt) []byte {
	b := make([]byte, p.bytes)
	for i := range b {
		b[i] = byte(int(p.serial)*29 + i*7)
		if i < 4 {
			b[i] = byte(p.serial >> (8 * i))
		}
	}
	return b
}

// fzRes is an open reservation and the packet it will hold.
type fzRes struct {
	r Reservation
	mServed
}

// departure is a packet a port's sink took, and the pacer tick it left on.
type departure struct {
	tick int64
	port int
	mServed
}

type harness struct {
	t       *testing.T
	e       stepped
	m       *model
	started bool

	pend   []mServed // posted, not yet executed; all on shard pendOn
	pendOn int
	held   []PacketView
	res    []fzRes
	serial uint32

	delivered   map[int][]Dequeued // this settle's sink calls, per port
	retainEvery int                // the sink retains every nth view it is handed
	sinkCalls   int
	departed    []departure // every packet a sink took, in order

	// Picked service, for the egress audit, in bytes and packets: per flow
	// at {-1, -1, -1, flow}, per node at {shard, port, level, node}.
	served map[[4]int][2]int64
}

func FuzzEngineCommands(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := script(data)
		cfg, started := fuzzConfig(&in)
		runEngine(t, cfg, started, in)
	})
}

// runEngine runs the command stream in on a stepped engine built from cfg
// — its rings installed, without workers, when started — holding it to
// the model after every command, and settles everything at the end. The
// engine closes when the test ends.
func runEngine(t *testing.T, cfg Config, started bool, in []byte) *harness {
	t.Helper()
	e := newStepped(t, cfg)
	t.Cleanup(func() { e.Close() })
	cfg = e.Config()
	h := &harness{t: t, e: e, m: newModel(cfg, e.shardIndex), started: started, delivered: map[int][]Dequeued{}}
	if started {
		for _, s := range e.shards {
			r, err := ring.New[command](cfg.RingCapacity)
			if err != nil {
				t.Fatal(err)
			}
			s.ring, s.cmds = r, make([]command, drainBatch)
		}
		e.state.Store(stateStarted)
	}
	for _, s := range e.shards {
		e.run(s, func() {
			// One goroutine never contends for a shard, so mark every shard
			// shared for good: every drain runs the prefetch pipeline, and the
			// model holds the packets it delivers to the same account as any
			// other.
			s.markShared(math.MaxInt)
			if s.adm != nil && cfg.Admission.Kind == policy.KindRED {
				s.adm = reachLog{s.adm, s.cache, &h.m.reach}
			}
		})
	}
	h.resetAudit()
	cmds := script(in)
	for step := 0; len(cmds) > 0; step++ {
		fzOps[cmds.next()%len(fzOps)](h, &cmds)
		if len(h.m.reach) > 0 {
			t.Fatalf("step %d: RED was asked %d times more than the model asks it", step, len(h.m.reach))
		}
		if len(h.pend) == 0 {
			h.check(step)
		}
	}
	h.finish()
	return h
}

// reachLog records, each time RED is asked, how many segments the asking
// shard can reach: the one thing about a RED arrival the model does not
// work out itself.
type reachLog struct {
	policy.Admission
	c   *segstore.Cache
	log *[]int
}

func (r reachLog) Admit(flow uint32, need int, q policy.QueueState, pool policy.PoolState) policy.Verdict {
	*r.log = append(*r.log, r.c.Avail())
	return r.Admission.Admit(flow, need, q, pool)
}

// do appends one command; rep appends it n times.
func (s script) do(op int, args ...int) script {
	s = append(s, byte(op))
	for _, a := range args {
		s = append(s, byte(a))
	}
	return s
}

func (s script) rep(n, op int, args ...int) script {
	for range n {
		s = s.do(op, args...)
	}
	return s
}

// w appends two-byte arguments: the flows and sizes of an engine of more
// than 255 flows.
func (s script) w(args ...int) script {
	for _, a := range args {
		s = append(s, byte(a), byte(a>>8))
	}
	return s
}

// bytesArg is the size argument of the largest packet of at most n bytes;
// segsArg that of a packet of n segments (at most 35).
func bytesArg(n int) int { return (n - 1) / 9 }

func segsArg(n int) int { return bytesArg(n * queue.SegmentBytes) }

// --- posts and entries ---

// enter prepares a command whose first entry is shard sh: posts pending
// there run first, in order — the model settles them now — and posts
// pending anywhere else are drained before the command.
func (h *harness) enter(sh int) {
	if len(h.pend) > 0 && h.pendOn != sh {
		h.drain()
	}
	h.settlePosts()
}

// settlePosts runs the pending posts through the model, each staying on
// its shard with the reach the shard has right now, which their own
// enqueues spend and evictions refill.
func (h *harness) settlePosts() {
	if len(h.pend) == 0 {
		return
	}
	avail := h.e.shards[h.pendOn].cache.Avail()
	for _, p := range h.pend {
		h.m.arrive(p.flow, p.pkt, &avail, false)
	}
	h.pend = h.pend[:0]
}

func (h *harness) drain() {
	h.settlePosts()
	if err := h.e.Drain(); err != nil {
		h.t.Fatal(err)
	}
}

// wide reports whether flow and size arguments are two bytes wide.
func (h *harness) wide() bool { return len(h.m.flows) > 255 }

// newPkt is the next packet, its size read from in.
func (h *harness) newPkt(in *script) (mPkt, []byte) {
	h.serial++
	p := mPkt{serial: h.serial}
	switch b := in.next(); {
	case h.wide():
		p.bytes = b | in.next()<<8
	case b < 255:
		p.bytes = 1 + 9*b
	} // else an empty packet: the caller's error
	return p, payloadOf(p)
}

// flowArg reads a flow argument. home is the shard the command enters, -1
// for a flow outside the flow space, which is refused before any.
func (h *harness) flowArg(in *script) (flow uint32, home int) {
	n := len(h.m.flows)
	if h.wide() {
		if flow = uint32(in.next() | in.next()<<8); int(flow) > n {
			flow = math.MaxUint32
		}
	} else {
		flow = uint32(in.next() % (n + 1))
	}
	if int64(flow) >= int64(n) {
		return flow, -1
	}
	return flow, h.e.shardIndex(flow)
}

// want checks a call's error against the model's (nil: none): worded the
// same, around the same sentinel when the model's wraps one.
func (h *harness) want(what string, want, err error) {
	h.t.Helper()
	ok := err == want
	if err != nil && want != nil {
		sentinel := errors.Unwrap(want)
		ok = err.Error() == want.Error() && (sentinel == nil || errors.Is(err, sentinel))
	}
	if !ok {
		h.t.Fatalf("%s: %v, the model says %v", what, err, want)
	}
}

// got checks a delivered packet against the model's and settles what the
// caller owns: a view is held, a copy's buffer goes back.
func (h *harness) got(what string, flow uint32, data []byte, v PacketView, view bool, want mServed) {
	h.t.Helper()
	if view {
		if data != nil || !v.Valid() {
			h.t.Fatalf("%s: view delivery gave Data=%v, a valid view=%v", what, data != nil, v.Valid())
		}
		data = v.AppendTo(nil)
		h.held = append(h.held, v)
		h.m.lent += want.pkt.segs()
	} else {
		if v.Valid() {
			h.t.Fatalf("%s: copy delivery gave a view", what)
		}
		h.m.c.CopiedBytes += uint64(len(data))
		defer h.e.ReleaseBuffer(data)
	}
	if flow != want.flow || !bytes.Equal(data, payloadOf(want.pkt)) {
		h.t.Fatalf("%s: delivered flow %d, %d bytes; the model serves packet %d of flow %d (%d bytes)",
			what, flow, len(data), want.pkt.serial, want.flow, want.pkt.bytes)
	}
}

// picked files a packet the egress discipline chose, for the audit.
func (h *harness) picked(d mServed) {
	tally := func(k [4]int) { h.served[k] = [2]int64{h.served[k][0] + int64(d.pkt.bytes), h.served[k][1] + 1} }
	tally([4]int{-1, -1, -1, int(d.flow)})
	for k, id := range h.m.path(d.flow) {
		tally([4]int{h.e.shardIndex(d.flow), int(h.m.flows[d.flow].port), k, int(id)})
	}
}

// pulled checks a picked pull's result against the model's.
func (h *harness) pulled(what string, got []Dequeued, want []mServed, view bool) {
	h.t.Helper()
	if len(got) != len(want) {
		h.t.Fatalf("%s: %d packets, the model serves %d", what, len(got), len(want))
	}
	for i, d := range got {
		if d.Bytes != want[i].pkt.bytes {
			h.t.Fatalf("%s: Bytes %d for a %d-byte packet", what, d.Bytes, want[i].pkt.bytes)
		}
		h.got(what, d.Flow, d.Data, d.View, view, want[i])
		h.picked(want[i])
	}
}

// --- commands ---

var fzOps = [...]func(h *harness, in *script){
	cEnqueue: opEnqueue, cPost: opPost, cBatch: opBatch, cReserve: opReserve, cSettle: opSettleReservation,
	cDequeue: opDequeue, cDequeueBatch: opDequeueBatch, cNext: opNext, cNextBatch: opNextBatch,
	cRelease: opRelease, cMove: opMove, cDelete: opDelete, cLimit: opLimit, cWeight: opWeight,
	cRehome: opRehome, cServe: opServe, cDrain: opDrain, cSetEgress: opSetEgress, cRead: opRead,
	cClock: opClock, cRate: opRate, cPause: opPause, cWeigh: opWeigh,
}

func opEnqueue(h *harness, in *script) {
	flow, _ := h.flowArg(in)
	pkt, data := h.newPkt(in)
	h.enter(h.e.shardIndex(flow))
	n, err := h.e.EnqueuePacket(flow, data)
	h.want("EnqueuePacket", h.m.arrive(flow, pkt, nil, false), err)
	if err == nil && n != pkt.segs() {
		h.t.Fatalf("EnqueuePacket linked %d segments of a %d-segment packet", n, pkt.segs())
	}
}

// opPost is EnqueueAsync: posted once the rings exist, on the spot before.
// Nobody is told a post's fate. Under RED a post runs at once, so that the
// model meets RED's questions in the order the engine asks them.
func opPost(h *harness, in *script) {
	flow, _ := h.flowArg(in)
	pkt, data := h.newPkt(in)
	sh := h.e.shardIndex(flow)
	if len(h.pend) > 0 && (h.pendOn != sh || len(h.pend) == fzMaxPend) {
		h.drain()
	}
	avail := h.e.shards[sh].cache.Avail()
	if err := h.e.EnqueueAsync(flow, data); err != nil {
		h.t.Fatalf("EnqueueAsync: %v", err)
	}
	switch {
	case !h.started:
		h.m.arrive(flow, pkt, nil, false)
	case h.m.adm.Kind == policy.KindRED:
		h.drain()
		h.m.arrive(flow, pkt, &avail, false)
	default:
		h.pend, h.pendOn = append(h.pend, mServed{flow, pkt}), sh
	}
}

// byShard is the order the batch calls visit n requests in: shard by
// shard, each shard's in list order.
func (h *harness) byShard(n int, flow func(i int) uint32) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return h.e.shardIndex(flow(a)) - h.e.shardIndex(flow(b)) })
	return order
}

// opBatch is EnqueueBatch, settled in the model in byShard order.
func opBatch(h *harness, in *script) {
	h.drain()
	reqs := make([]EnqueueReq, 1+in.next()%8)
	pkts := make([]mPkt, len(reqs))
	for i := range reqs {
		reqs[i].Flow, _ = h.flowArg(in)
		pkts[i], reqs[i].Data = h.newPkt(in)
	}
	segs, errs := h.e.EnqueueBatch(reqs)
	want := 0
	for _, i := range h.byShard(len(reqs), func(i int) uint32 { return reqs[i].Flow }) {
		var err error
		if errs != nil {
			err = errs[i]
		}
		h.want("EnqueueBatch", h.m.arrive(reqs[i].Flow, pkts[i], nil, false), err)
		if err == nil {
			want += pkts[i].segs()
		}
	}
	if segs != want {
		h.t.Fatalf("EnqueueBatch linked %d segments, the model %d", segs, want)
	}
}

func opReserve(h *harness, in *script) {
	flow, _ := h.flowArg(in)
	pkt, data := h.newPkt(in)
	h.enter(h.e.shardIndex(flow))
	r, err := h.e.ReservePacket(flow, pkt.bytes)
	h.want("ReservePacket", h.m.arrive(flow, pkt, nil, true), err)
	if err != nil {
		return
	}
	if r.Segments() != pkt.segs() || r.Len() != pkt.bytes || r.Flow() != flow {
		h.t.Fatalf("reservation of %d bytes on flow %d reads %d bytes, %d segments, flow %d",
			pkt.bytes, flow, r.Len(), r.Segments(), r.Flow())
	}
	r.Range(func(seg []byte) bool {
		data = data[copy(seg, data):]
		return true
	})
	h.res = append(h.res, fzRes{r, mServed{flow, pkt}})
}

// opSettleReservation commits or aborts an open reservation. Abort enters
// no shard; Commit its flow's, and links without asking admission again.
func opSettleReservation(h *harness, in *script) {
	a := in.next()
	if len(h.res) == 0 {
		return
	}
	i := a % len(h.res)
	r := h.res[i]
	h.res = slices.Delete(h.res, i, i+1)
	h.m.lent -= r.pkt.segs()
	settle, what := r.r.Commit, "Commit"
	if a&128 != 0 {
		settle, what = r.r.Abort, "Abort"
	} else {
		h.enter(h.e.shardIndex(r.flow))
		h.m.commit(r.flow, r.pkt)
	}
	if err := settle(); err != nil || r.r.Valid() {
		h.t.Fatalf("%s: %v, the reservation still open: %v", what, err, r.r.Valid())
	}
	if err := settle(); !errors.Is(err, queue.ErrWriterDone) {
		h.t.Fatalf("%s again: %v, want ErrWriterDone", what, err)
	}
}

// flowTake is the model's side of a dequeue that names its flow.
func (h *harness) flowTake(flow uint32) (mServed, error) {
	switch {
	case int64(flow) >= int64(len(h.m.flows)):
		return mServed{}, h.m.errFlow(flow)
	case len(h.m.flows[flow].q) == 0:
		return mServed{}, errEmpty(flow)
	}
	return mServed{flow, h.m.take(flow, unpicked)}, nil
}

func opDequeue(h *harness, in *script) {
	flow, _ := h.flowArg(in)
	view := in.next()&1 != 0
	h.enter(h.e.shardIndex(flow))
	var data []byte
	var v PacketView
	var err error
	if view {
		v, err = h.e.DequeuePacketView(flow)
	} else {
		data, err = h.e.DequeuePacket(flow)
	}
	want, werr := h.flowTake(flow)
	if h.want("DequeuePacket", werr, err); werr == nil {
		h.got("DequeuePacket", flow, data, v, view, want)
	}
}

// opDequeueBatch is DequeueBatch, or with the view flag DequeuePacketView
// flow by flow, either one checked in byShard order.
func opDequeueBatch(h *harness, in *script) {
	h.drain()
	flows := make([]uint32, 1+in.next()%8)
	for i := range flows {
		flows[i], _ = h.flowArg(in)
	}
	view := in.next()&1 != 0
	var pkts [][]byte
	var errs []error
	if !view {
		pkts, errs = h.e.DequeueBatch(flows)
	}
	for _, i := range h.byShard(len(flows), func(i int) uint32 { return flows[i] }) {
		var data []byte
		var v PacketView
		var err error
		if view {
			v, err = h.e.DequeuePacketView(flows[i])
		} else {
			data, err = pkts[i], errs[i]
		}
		want, werr := h.flowTake(flows[i])
		if h.want("DequeueBatch", werr, err); werr == nil {
			h.got("DequeueBatch", flows[i], data, v, view, want)
		}
	}
}

func opNext(h *harness, in *script) {
	view := in.next()&1 != 0
	h.drain()
	next := h.e.DequeueNext
	if view {
		next = h.e.DequeueNextView
	}
	got := make([]Dequeued, 0, 1)
	if d, ok := next(); ok {
		got = append(got, d)
	}
	h.pulled("DequeueNext", got, h.m.next(1), view)
}

func opNextBatch(h *harness, in *script) {
	a := in.next()
	view, n := a&1 != 0, a>>1%9
	h.drain()
	next := h.e.DequeueNextBatch
	if view {
		next = h.e.DequeueNextViewBatch
	}
	h.pulled("DequeueNextBatch", next(n), h.m.next(n), view)
}

// opRelease gives back the oldest held view, or every one in a batch.
func opRelease(h *harness, in *script) {
	n := min(len(h.held), 1)
	if in.next()&1 != 0 {
		n = len(h.held)
	}
	ds := make([]Dequeued, n)
	for i, v := range h.held[:n] {
		ds[i].View = v
		h.m.lent -= v.Segments()
	}
	if h.held = h.held[n:]; n == 1 {
		ds[0].View.Release()
	} else {
		h.e.ReleaseViews(ds)
	}
}

func opMove(h *harness, in *script) {
	from, home := h.flowArg(in)
	to, toHome := h.flowArg(in)
	if home >= 0 && toHome >= 0 {
		h.enter(home)
	}
	n, err := h.e.MovePacket(from, to)
	segs := 0
	if home >= 0 && len(h.m.flows[from].q) > 0 {
		segs = h.m.flows[from].q[0].segs()
	}
	h.want(fmt.Sprintf("MovePacket(%d, %d)", from, to), h.m.move(from, to), err)
	if err == nil && n != segs {
		h.t.Fatalf("MovePacket(%d, %d) moved %d segments of a %d-segment packet", from, to, n, segs)
	}
}

func opDelete(h *harness, in *script) {
	flow, home := h.flowArg(in)
	if home >= 0 {
		h.enter(home)
	}
	n, err := h.e.DeletePacket(flow)
	want, werr := h.flowTake(flow)
	if h.want("DeletePacket", werr, err); err == nil && n != want.pkt.segs() {
		h.t.Fatalf("DeletePacket(%d) deleted %d segments of a %d-segment packet", flow, n, want.pkt.segs())
	}
}

// control runs a control-plane call on flow: on a flow outside the flow
// space it must fail with ErrUnknownFlow, entering no shard; on any other
// it must succeed. It reports whether the flow was in the space.
func (h *harness) control(what string, flow uint32, home int, call func() error) bool {
	h.t.Helper()
	if home >= 0 {
		h.enter(home)
	}
	if err := call(); home < 0 && err != ErrUnknownFlow || home >= 0 && err != nil {
		h.t.Fatalf("%s(%d): %v", what, flow, err)
	}
	return home >= 0
}

func opLimit(h *harness, in *script) {
	flow, home := h.flowArg(in)
	limit := in.next() % 40
	if h.control("SetFlowLimit", flow, home, func() error { return h.e.SetFlowLimit(flow, limit) }) {
		h.m.flows[flow].limit = min(limit, h.m.pool)
	}
}

// opWeight sets a flow's weight or, with the top bit, a tier unit's.
func opWeight(h *harness, in *script) {
	flow, _ := h.flowArg(in)
	a := in.next()
	tier := a >> 2 % 2
	if a&128 == 0 {
		tier = -1
	}
	h.weigh(tier, flow, a>>3%len(h.m.tierW[max(tier, 0)]), 1+a%4)
}

// weigh is SetWeight on flow (tier -1) or SetTierWeight on a tier's unit.
func (h *harness) weigh(tier int, flow uint32, unit, w int) {
	h.drain()
	if tier < 0 {
		h.want("SetWeight", h.m.setWeight(flow, w), h.e.SetWeight(flow, w))
	} else {
		t := policy.Tier(tier)
		h.want("SetTierWeight", h.m.setTierWeight(t, unit, w), h.e.SetTierWeight(t, unit, w))
	}
}

// opRehome moves a flow to another port, tenant or class; SetFlowPort
// kicks the port it names.
func opRehome(h *harness, in *script) {
	flow, home := h.flowArg(in)
	a := in.next()
	f := &h.m.flows[min(int(flow), len(h.m.flows)-1)]
	at, unit, set := &f.port, a>>2%len(h.m.ports), h.e.SetFlowPort
	switch a & 3 {
	case 1:
		at, unit, set = &f.unit[policy.TierTenant], a>>2%len(h.m.tierW[policy.TierTenant]), h.e.SetFlowTenant
	case 2:
		at, unit, set = &f.unit[policy.TierClass], a>>2%len(h.m.tierW[policy.TierClass]), h.e.SetFlowClass
	}
	if h.control("rehoming", flow, home, func() error { return set(flow, unit) }) {
		h.m.rehome(flow, at, int32(unit))
		if at == &f.port {
			h.m.ports[unit].wake = true
		}
	}
}

// opServe registers a sink on a port (once) and steps the pacer until
// it is quiet; the sink retains every nth view it is handed, which the
// harness then holds.
func opServe(h *harness, in *script) {
	a := in.next()
	port := a % len(h.m.ports)
	h.retainEvery, h.sinkCalls = a>>4, 0
	h.drain()
	if p := &h.m.ports[port]; !p.serving {
		err := h.e.ServeViews(port, SinkVFunc(func(port int, d DequeuedView) error {
			if h.sinkCalls++; h.retainEvery > 0 && h.sinkCalls%h.retainEvery == 0 {
				d.View.Retain()
			} else {
				d.Data, d.View = d.View.AppendTo(nil), PacketView{}
			}
			h.delivered[port] = append(h.delivered[port], d)
			return nil
		}))
		if err != nil {
			h.t.Fatal(err)
		}
		p.serving, p.wake = true, true
	}
	h.settle()
}

// settle steps the pacer at the current instant and holds each sink's
// deliveries to the model's.
func (h *harness) settle() {
	h.e.settle()
	want := h.m.settle()
	for p := range h.m.ports {
		got := h.delivered[p]
		if len(got) != len(want[p]) {
			h.t.Fatalf("tick %d: port %d's sink got %d packets, the model serves %d", h.m.now/mTick, p, len(got), len(want[p]))
		}
		for i, d := range got {
			h.m.c.CopiedBytes -= uint64(len(d.Data)) // the sink's own copy
			h.got("ServeViews", d.Flow, d.Data, d.View, d.View.Valid(), want[p][i])
			h.picked(want[p][i])
			h.departed = append(h.departed, departure{h.m.now / mTick, p, want[p][i]})
		}
		delete(h.delivered, p)
	}
}

// opClock moves engine time on n+1 pacer ticks, settling at each.
func opClock(h *harness, in *script) {
	n := in.next()
	h.drain()
	for range n + 1 {
		h.e.clk.ns.Add(mTick)
		h.m.now += mTick
		h.settle()
	}
}

// portArg reads a port argument: NumPorts (mod NumPorts+1) is out of range.
func (h *harness) portArg(a int) int { return a % (len(h.m.ports) + 1) }

// rateArg is SetPortRate's configuration from a rate code r — r%64 KiB/s
// times 16^(r/64), 0 unshaped, a tick's credit never a whole byte count;
// 254 past the maximum, 255 negative — and a burst code b: 64b bytes, 0
// the default, 255 negative.
func rateArg(r, b int) policy.ShaperConfig {
	cfg := policy.ShaperConfig{RateBytesPerSec: int64(r%64) << (10 + r/64*4), BurstBytes: int64(b) * 64}
	if r >= 254 {
		cfg.RateBytesPerSec = [2]int64{policy.MaxShaperRate + 1, -1}[r-254]
	}
	if b == 255 {
		cfg.BurstBytes = -1
	}
	return cfg
}

func opRate(h *harness, in *script) {
	port, cfg := h.portArg(in.next()), rateArg(in.next(), in.next())
	h.want("SetPortRate", h.m.setPortRate(port, cfg), h.e.SetPortRate(port, cfg))
}

func opPause(h *harness, in *script) {
	a := in.next()
	port, call := h.portArg(a>>1), h.e.Pause
	if a&1 != 0 {
		call = h.e.Resume
	}
	h.want("Pause/Resume", h.m.pause(port, a&1 == 0), call(port))
}

// opWeigh is SetWeight (which%4 = 0) or SetTierWeight on the tenant tier,
// the class tier or a tier past them, with a weight the setters must
// refuse or keep; a unit argument of the tier's unit count is out of range.
func opWeigh(h *harness, in *script) {
	tier, flow, unit := in.next()%4-1, uint32(0), 0
	if tier < 0 {
		flow, _ = h.flowArg(in)
	} else {
		unit = in.next() % (len(h.m.tierW[min(tier, int(numTiers)-1)]) + 1)
	}
	h.weigh(tier, flow, unit, [...]int{0, -2, 1, 3, policy.MaxWeight, int(pastMaxWeight), math.MinInt, math.MaxInt}[in.next()%8])
}

// pastMaxWeight is a variable: int may be 32 bits.
var pastMaxWeight = int64(policy.MaxWeight) + 1

func opDrain(h *harness, _ *script) { h.drain() }

// opSetEgress replaces the disciplines, keeping the hierarchy's shape; the
// audit starts over, since the reset forfeits without refunds.
func opSetEgress(h *harness, in *script) {
	var units [numTiers]int
	for t := range units {
		units[t] = len(h.m.tierW[t])
	}
	eg := fuzzEgress(in.next(), in.next(), units)
	h.drain()
	if err := h.e.SetEgress(eg); err != nil {
		h.t.Fatal(err)
	}
	h.m.setEgress(eg)
	h.resetAudit()
}

// opRead checks a flow's Flow record and its Len.
func opRead(h *harness, in *script) {
	flow, home := h.flowArg(in)
	var fi FlowInfo
	if !h.control("Flow", flow, home, func() (err error) { fi, err = h.e.Flow(flow); return err }) {
		_, err := h.e.Len(flow)
		h.want("Len", h.m.errFlow(flow), err)
		return
	}
	f, bytes := &h.m.flows[flow], 0
	for _, p := range f.q {
		bytes += p.bytes
	}
	want := FlowInfo{Port: int(f.port), Tenant: int(f.unit[policy.TierTenant]), Class: int(f.unit[policy.TierClass]),
		Weight: int(h.m.weight(-1, int32(flow))), Limit: f.limit, Occupancy: queue.Occupancy{Segments: f.segs, Bytes: bytes, Packets: len(f.q)}}
	if n, err := h.e.Len(flow); fi != want || n != f.segs || err != nil {
		h.t.Fatalf("Flow(%d) = %+v, Len %d (%v); the model says %+v", flow, fi, n, err, want)
	}
}

// --- checks ---

// check holds the books — the totals, each port's and each tier unit's —
// to the model's and runs the engine's own checks.
func (h *harness) check(step int) {
	h.t.Helper()
	m, active := h.m, 0
	ports, units := make([]int, len(m.ports)), [numTiers][]int{}
	for t := range units {
		units[t] = make([]int, len(m.tierW[t]))
	}
	for _, f := range m.flows {
		if f.active {
			active++
			ports[f.port]++
			for t := range units {
				units[t][f.unit[t]]++
			}
		}
	}
	st := h.e.Stats()
	st.EnqueuedRuns, st.EnqueuedWhole = 0, 0
	if st.Counters != m.c || st.QueuedSegments != m.queued || st.LentSegments != m.lent ||
		st.FreeSegments != m.free() || st.ActiveFlows != active {
		h.t.Fatalf("step %d: the books read %+v, queued %d, lent %d, free %d, %d active; "+
			"the model %+v, queued %d, lent %d, free %d, %d active",
			step, st.Counters, st.QueuedSegments, st.LentSegments, st.FreeSegments, st.ActiveFlows,
			m.c, m.queued, m.lent, m.free(), active)
	}
	for p, ps := range h.e.PortStats() {
		mp := &m.ports[p]
		want := PortStat{Port: p, TransmittedPackets: mp.txPackets, TransmittedBytes: mp.txBytes,
			Throttled: mp.throttled, Paused: mp.paused, Serving: mp.serving, ActiveFlows: ports[p],
			RateBytesPerSec: mp.rate, BurstBytes: mp.burst, ShaperTokens: mp.peek(m.now)}
		ps.GapSamples, ps.MeanGapNs, ps.P99GapNs = 0, 0, 0 // jitter is not modelled
		if ps != want {
			h.t.Fatalf("step %d: port %d reads %+v; the model %+v", step, p, ps, want)
		}
	}
	for t := range units {
		for u, ts := range h.e.TierStats(policy.Tier(t)) {
			if ts.ActiveFlows != units[t][u] || int64(ts.Weight) != max(m.tierW[t][u], 1) {
				h.t.Fatalf("step %d: %s %d reads %+v; the model %d active, weight %d",
					step, policy.Tier(t), u, ts, units[t][u], max(m.tierW[t][u], 1))
			}
		}
	}
	if err := h.e.CheckInvariants(); err != nil {
		h.t.Fatalf("step %d: %v", step, err)
	}
	h.checkAudit(step)
}

// resetAudit arms the engine's grant audits at every level, from zero, and
// zeroes the harness's service tallies.
func (h *harness) resetAudit() {
	e := h.e
	for _, s := range e.shards {
		e.run(s, func() {
			s.eg.audit, s.eg.auditLevels = make([]int64, e.cfg.NumFlows), true
			for p := range s.ps {
				if ps := &s.ps[p]; ps.st.Ready() {
					s.initLevelAuditLocked(ps)
				}
			}
		})
	}
	h.served = map[[4]int][2]int64{}
}

// checkAudit is the egress conservation law at every level: under DRR the
// bytes served equal the quanta granted less the deficit outstanding, under
// WRR the packets served equal the visit credit granted less the credit
// left in the open visit.
func (h *harness) checkAudit(step int) {
	h.t.Helper()
	law := func(kind policy.EgressKind, key [4]int, granted, deficit int64, l *sched.Level, id int32) {
		served, outstanding := h.served[key][0], deficit
		switch kind {
		case policy.EgressWRR:
			served, outstanding = h.served[key][1], 0
			if l != nil && l.Visiting() && l.Cursor() == id {
				outstanding = l.Credit()
			}
		case policy.EgressDRR:
		default:
			return
		}
		if served != granted-outstanding {
			h.t.Fatalf("step %d: %v (shard, port, level, node; -1s: a flow) served %d, granted %d − outstanding %d",
				step, key, served, granted, outstanding)
		}
	}
	for si, s := range h.e.shards {
		for f := range s.flows {
			if h.e.shardIndex(uint32(f)) != si {
				continue
			}
			ps := &s.ps[s.flows[f].port]
			var l *sched.Level
			if ps.st.Ready() {
				l = ps.st.Root()
				if n := ps.st.Depth(); n > 0 {
					var pb [numTiers]int32
					l = ps.st.Child(n-1, s.pathOf(uint32(f), pb[:0])[n-1])
				}
			}
			law(s.eg.kind, [4]int{-1, -1, -1, f}, s.eg.audit[f], s.Deficit(int32(f)), l, int32(f))
		}
		for p := range s.ps {
			ps := &s.ps[p]
			if !ps.st.Ready() {
				continue
			}
			for k, lv := range s.eg.levels {
				for id := range lv.count {
					parent := ps.st.Root()
					if k > 0 {
						parent = ps.st.Child(k-1, id/lv.mod)
					}
					law(lv.kind, [4]int{si, p, k, int(id)}, ps.audits[k][id], ps.st.NodeDeficit(k, id), parent, id)
				}
			}
		}
	}
}

// finish settles everything still out — posts, reservations, views — then
// serves the backlog through the discipline, and every segment must be
// back in the pool.
func (h *harness) finish() {
	h.drain()
	for _, r := range h.res {
		if err := r.r.Abort(); err != nil {
			h.t.Fatal(err)
		}
		h.m.lent -= r.pkt.segs()
	}
	h.res = nil
	opRelease(h, &script{1})
	for {
		want := h.m.next(64)
		h.pulled("final drain", h.e.DequeueNextViewBatch(64), want, true)
		opRelease(h, &script{1})
		if len(want) == 0 {
			break
		}
	}
	h.check(-1)
	if lent, free := h.e.LentSegments(), h.e.FreeSegments(); lent != 0 || free != h.m.pool {
		h.t.Fatalf("at the end %d segments are lent and %d free of %d", lent, free, h.m.pool)
	}
}
