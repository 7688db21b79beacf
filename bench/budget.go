package main

import (
	"fmt"

	"npqm/internal/policy"
)

// budgetRow is one line of the per-layer cost budget: what a layer costs
// per delivered packet in the workload's pattern, from its replay.
type budgetRow struct {
	Layer    string  `json:"layer"`
	NsPerPkt float64 `json:"ns_per_pkt"`
	Note     string  `json:"note,omitempty"`
}

// roundTripCost is the engine's single-goroutine round trip over the
// pattern, from spans around the facade calls only.
type roundTripCost struct {
	dequeueNs, releaseNs float64 // per packet, each call kind alone
	perDelivered         float64 // enqueue + dequeue + release, per delivered packet
}

// roundTrip runs the pattern through the facade from one goroutine. A push
// workload's engine is pulled by hand here (views, no sinks served), which
// is also where its dequeue and release costs come from: in the trials the
// pacers make those calls, out of the harness's sight.
func roundTrip(w *workload, b *runBufs, seed uint64, p pattern) (roundTripCost, uint64, error) {
	var rc roundTripCost
	rw := *w
	if rw.deliver == deliverPush {
		rw.deliver = deliverView
	}
	t, _, err := newTrial(&rw, b, seed, true)
	if err != nil {
		return rc, 0, err
	}
	for i := 0; i < p.prefill; i++ {
		s := t.nextSlot()
		t.stage(s, 0)
		if err := t.offerRetry(s); err != nil {
			return rc, 0, fmt.Errorf("round trip prefill: %w", err)
		}
		t.offered++
	}
	if rw.ingest == ingestAsync {
		if err := t.cm.Drain(); err != nil {
			return rc, 0, err
		}
	}
	t.rec.resetTotals()
	t.crec.resetTotals()
	idx := t.rec.openPhase(phaseRoundTrip)
	cidx := t.crec.openPhase(phaseRoundTrip)
	before := t.delivered.Load()
	for s := 0; s < p.steps; s++ {
		win := t.nextWindow(p.offer)
		s0 := t.rec.begin()
		for i := range win {
			t.stage(&win[i], 0)
		}
		t.rec.end(spGen, s0, len(win))
		s1 := t.rec.begin()
		for i := range win {
			if err := t.offer(&win[i]); err != nil {
				t.refused++
			}
		}
		t.rec.end(spEnqueue, s1, len(win))
		t.rec.batch++
		t.offered += uint64(len(win))
		for served := 0; served < p.serve; {
			n := t.pull(p.serve - served)
			if n == 0 {
				break
			}
			served += n
		}
	}
	delivered := t.delivered.Load() - before
	t.rec.closePhase(idx)
	t.crec.closePhase(cidx)
	rc.dequeueNs = t.crec.perPkt(spDequeue)
	rc.releaseNs = t.crec.perPkt(spRelease)
	if delivered > 0 {
		rc.perDelivered = float64(t.rec.ns[spEnqueue]+t.crec.ns[spDequeue]+t.crec.ns[spRelease]) / float64(delivered)
	}
	_, err = t.finish(nil)
	return rc, t.v.failed(), err
}

// layerMetrics runs the round trip and every layer replay and turns them
// into the per-layer metrics and the budget table.
func layerMetrics(w *workload, b *runBufs, opt options, vals collector, res *workloadResult) error {
	p := w.pattern(opt.seconds)
	sc, err := newScript(w, opt.seed, p)
	if err != nil {
		return err
	}
	b.setTrial(opt.trials) // the round trip comes after the trials
	rt, failed, err := roundTrip(w, b, opt.seed, p)
	if err != nil {
		res.Failures += fmt.Sprintf(" round trip: %v;", err)
	}
	res.OpsAttempted += uint64(p.prefill+p.steps*p.offer) + trialChecks
	res.OpsFailed += failed

	rg, err := replayRing(sc, p)
	if err != nil {
		return err
	}
	ss, err := replaySegstore(sc, p, w.pool)
	if err != nil {
		return err
	}
	lqd := w.admission.Kind == policy.KindLQD
	qCopy, err := replayQueue(sc, p, w.pool, false, lqd, lqd, b.template)
	if err != nil {
		return err
	}
	qView, err := replayQueue(sc, p, w.pool, true, lqd, false, b.template)
	if err != nil {
		return err
	}
	// Push-out and admission are priced only where the workload runs them.
	var admitNs float64
	if lqd {
		if admitNs, err = replayPolicy(qCopy.admits, w.pool); err != nil {
			return err
		}
	}
	sd := replaySched(w, sc, p, w.pool, opt.host.ClockNs)
	var ws workerStats
	if w.ring {
		if ws, err = probeWorkers(w, sc, p, b.template); err != nil {
			return err
		}
	}

	vals.put("engine.roundtrip_ns_per_pkt", rt.perDelivered)
	if w.deliver == deliverPush {
		vals.put("engine.dequeue_ns_per_pkt", rt.dequeueNs)
		vals.put("engine.release_ns_per_pkt", rt.releaseNs)
	}
	vals.put("ring.push_ns", rg.pushNs)
	vals.put("ring.popbatch_ns_per_cmd", rg.popNsPerCmd)
	vals.put("engine.worker_busy_share_max", ws.busyShareMax)
	vals.put("engine.steal_batches", float64(ws.stealBatches))
	vals.put("segstore.allocn_ns_per_seg", ss.allocNs)
	vals.put("segstore.freen_ns_per_seg", ss.freeNs)
	vals.put("segstore.lend_return_ns_per_seg", ss.lendReturnNs)
	vals.put("queue.enqueue_ns_per_pkt", qCopy.enqueueNs)
	vals.put("queue.dequeue_copy_ns_per_pkt", qCopy.dequeueNs)
	vals.put("queue.reserve_commit_ns_per_pkt", qView.enqueueNs)
	vals.put("queue.dequeue_view_ns_per_pkt", qView.dequeueNs)
	if lqd {
		vals.put("queue.pushout_ns_per_pkt", qCopy.pushoutNs)
		vals.put("policy.admit_ns", admitNs)
	}
	vals.put("sched.activate_ns", sd.activateNs)
	vals.put("sched.pick_ns", sd.pickNs)
	vals.put("sched.charge_ns", sd.chargeNs)

	// The budget: each layer's replay cost times the operations one
	// delivered packet needs in this workload's pattern. Only layers on
	// the workload's path are summed; segstore is shown as the part of the
	// queue figure it is, not added twice.
	ing, del, freeNs := qCopy, qCopy, ss.freeNs
	if w.ingest == ingestReserve {
		ing = qView
	}
	if w.deliver != deliverCopy {
		del, freeNs = qView, ss.lendReturnNs
	}
	perDeliv := func(ops, delivered int) float64 {
		if delivered == 0 {
			return 0
		}
		return float64(ops) / float64(delivered)
	}
	enqPer, pushPer := perDeliv(ing.enqueued, ing.delivered), perDeliv(ing.pushouts, ing.delivered)
	queueNs := enqPer*ing.enqueueNs + del.dequeueNs + pushPer*ing.pushoutNs
	segNs := del.segsPerPkt * (enqPer*ss.allocNs + freeNs)
	schedNs := perDeliv(sd.activations, sd.picks)*sd.activateNs + sd.pickNs + sd.chargeNs
	rows := []budgetRow{
		{"queue", queueNs, fmt.Sprintf("%.2f enqueues and %.3f push-outs per delivery, segstore included", enqPer, pushPer)},
		{"  of which segstore", segNs, fmt.Sprintf("%.1f segments per packet", del.segsPerPkt)},
		{"sched", schedNs, fmt.Sprintf("%.2f activate/deactivate per pick, depth %d", perDeliv(sd.activations, sd.picks), len(w.schedWidths))},
	}
	sum := queueNs + schedNs
	if lqd {
		ns := perDeliv(len(qCopy.admits), qCopy.delivered) * admitNs
		rows = append(rows, budgetRow{"policy", ns, "LQD Admit per arrival"})
		sum += ns
	}
	if w.ring {
		cmds := float64(p.offer+numShards) / float64(p.serve)
		ns := cmds * (rg.pushNs + rg.popNsPerCmd)
		rows = append(rows, budgetRow{"ring", ns, fmt.Sprintf("%.2f commands per delivery, uncontended, no wakes", cmds)})
		sum += ns
	}
	rows = append(rows,
		budgetRow{"sum of layers", sum, ""},
		budgetRow{"engine round trip", rt.perDelivered, "spans around facade enqueue + dequeue + release, one goroutine"},
		budgetRow{"residual (engine)", rt.perDelivered - sum, "shard dispatch, locks, batching, buffers, counters; on the ring datapath also worker wakes and completions"},
	)
	res.Budget = rows
	vals.put("engine.residual_ns_per_pkt", rt.perDelivered-sum)
	if rt.perDelivered > 0 {
		vals.put("engine.budget_coverage_pct", 100*sum/rt.perDelivered)
	} else {
		vals.put("engine.budget_coverage_pct", 0)
	}
	return nil
}
