package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one reported metric. The end-to-end ones carry the bound by
// which they may worsen, as a share of the baseline median, before
// -compare calls a change a regression; BENCHMARK.json repeats them.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	// everywhere: measured on every workload, so listed in BENCHMARK.json.
	// The rest only exist on some workloads and stay in the report.
	everywhere bool
}

var endToEnd = []metricDef{
	{"delivered_mpps", "Mpkt/s", "higher", 0.25, true},
	{"goodput_gbps", "Gbit/s", "higher", 0.25, true},
	{"cpu_ns_per_pkt", "ns", "lower", 0.25, true},
	{"rtt_p50_us", "us", "lower", 0.25, true},
	{"delivery_ratio", "ratio", "higher", 0.0005, true},
	{"heap_mib", "MiB", "lower", 0.05, true},
	{"setup_s", "s", "lower", 0.25, true},
}

var perLayer = []metricDef{
	{"engine.enqueue_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.dequeue_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.release_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.sink_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.roundtrip_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.residual_ns_per_pkt", "ns", "lower", 0, true},
	{"engine.budget_coverage_pct", "%", "higher", 0, true},
	{"ring.push_ns", "ns", "lower", 0, true},
	{"ring.popbatch_ns_per_cmd", "ns", "lower", 0, true},
	{"engine.ring_occ_peak", "count", "lower", 0, true},
	{"engine.coalesced_wakes_per_kpkt", "count", "higher", 0, true},
	{"engine.worker_busy_share_max", "ratio", "lower", 0, true},
	{"engine.steal_batches", "count", "higher", 0, true},
	{"segstore.allocn_ns_per_seg", "ns", "lower", 0, true},
	{"segstore.freen_ns_per_seg", "ns", "lower", 0, true},
	{"segstore.lend_return_ns_per_seg", "ns", "lower", 0, true},
	{"queue.enqueue_ns_per_pkt", "ns", "lower", 0, true},
	{"queue.dequeue_copy_ns_per_pkt", "ns", "lower", 0, true},
	{"queue.dequeue_view_ns_per_pkt", "ns", "lower", 0, true},
	{"queue.reserve_commit_ns_per_pkt", "ns", "lower", 0, true},
	{"queue.pushout_ns_per_pkt", "ns", "lower", 0, false},
	{"policy.admit_ns", "ns", "lower", 0, false},
	{"engine.pushed_out_per_kpkt", "count", "lower", 0, true},
	{"sched.activate_ns", "ns", "lower", 0, true},
	{"sched.pick_ns", "ns", "lower", 0, true},
	{"sched.charge_ns", "ns", "lower", 0, true},
	{"engine.throttled_per_s", "1/s", "lower", 0, true},
	{"engine.shaped_rate_error_pct", "%", "lower", 0, false},
	{"engine.rtt_p99_us", "us", "lower", 0, true},
	{"engine.residence_p50_us", "us", "lower", 0, true},
	{"engine.residence_p99_us", "us", "lower", 0, true},
	{"engine.gap_p99_us", "us", "lower", 0, false},
	{"engine.copied_bytes_per_pkt", "B", "lower", 0, true},
	{"engine.lent_peak_segments", "count", "lower", 0, true},
	{"engine.pool_occ_peak_pct", "%", "lower", 0, true},
	{"engine.backpressure_waits_per_kpkt", "count", "lower", 0, true},
	{"engine.loss_ratio", "ratio", "lower", 0, true},
	{"engine.allocs_per_pkt", "allocs", "lower", 0, true},
	{"traffic.gen_ns_per_pkt", "ns", "lower", 0, true},
	{"traffic.gen_late_p99_us", "us", "lower", 0, false},
	{"traffic.clock_ns", "ns", "lower", 0, true},
	{"trace.overhead_pct", "%", "lower", 0, true},
	{"host.calib_ns", "ns", "lower", 0, true},
	// An untraced run: the host's pace over the saturate windows, and the
	// time-derived end-to-end metrics as measured, before they were brought
	// to the reference pace.
	{"host.pace", "ratio", "lower", 0, false},
	{"raw.delivered_mpps", "Mpkt/s", "higher", 0, false},
	{"raw.goodput_gbps", "Gbit/s", "higher", 0, false},
	{"raw.cpu_ns_per_pkt", "ns", "lower", 0, false},
	{"raw.rtt_p50_us", "us", "lower", 0, false},
	{"raw.setup_s", "s", "lower", 0, false},
}

func findMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// setupSamples is how many times an untraced run sets an engine up.
const setupSamples = 48

type options struct {
	setups   int // set-up samples an untraced run collects (>= trials)
	seed     uint64
	seconds  float64
	trials   int
	traced   bool
	traceDir string // where a traced run writes trace-<workload>.json
	host     hostInfo
}

// workloadResult is one workload's entry in the result file.
type workloadResult struct {
	Why          string          `json:"why"`
	Correct      bool            `json:"correct"`
	OpsAttempted uint64          `json:"ops_attempted"`
	OpsFailed    uint64          `json:"ops_failed"`
	Failures     string          `json:"failures,omitempty"`
	Trials       int             `json:"trials"`
	Digest       string          `json:"delivery_digest,omitempty"`
	PushedOut    *uint64         `json:"pushed_out,omitempty"`
	LossRatio    float64         `json:"loss_ratio"`
	Metrics      map[string]stat `json:"metrics"`
	Budget       []budgetRow     `json:"budget,omitempty"`
	Elapsed      float64         `json:"elapsed_s"`
}

// collector gathers one value per metric per trial.
type collector map[string][]float64

func (c collector) put(name string, v float64) { c[name] = append(c[name], v) }

func (c collector) stats() map[string]stat {
	out := make(map[string]stat, len(c))
	for name, vs := range c {
		d, ok := findMetric(name)
		if !ok {
			panic("metric not in the registry: " + name)
		}
		out[name] = summarize(vs, d.unit)
	}
	return out
}

func us(ns float64) float64 { return ns / 1e3 }

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// tracedTrial picks which trials of a traced run record spans: the odd
// ones and the last, so that traced and untraced trials alternate and the
// overhead is measured on one host state.
func tracedTrial(i, trials int) bool { return i%2 == 1 || i == trials-1 }

func runWorkload(w *workload, opt options) (*workloadResult, error) {
	began := time.Now()
	b := newRunBufs(w, opt.traced)
	res := &workloadResult{Why: w.why, Trials: opt.trials}
	vals := collector{}
	var digests, pushed, losses []uint64
	var lossRatios []float64
	var failures string
	var mppsTraced, mppsPlain []float64

	// A traced run spends 60% of its time on trials and the rest on the
	// round trip and the layer replays.
	per := opt.seconds / float64(opt.trials)
	if opt.traced {
		per *= 0.6
	}
	rttShare, satShare, pacedShare := 0.25, 0.75, 0.0
	if w.deliver == deliverPush {
		rttShare, satShare, pacedShare = 0.2, 0.5, 0.3
	}
	// The fixed counts are stated for refSeconds split over refTrials.
	scale := per / (float64(refSeconds) / refTrials)
	steps := max(8, int(float64(w.refSteps)*scale))
	rttCount := 0
	if w.stepped {
		rttCount = max(500, int(300_000*scale))
	}

	for i := 0; i < opt.trials; i++ {
		runtime.GC()
		traced := opt.traced && tracedTrial(i, opt.trials)
		b.setTrial(i)
		t, err := setUp(w, b, opt.seed, traced, vals)
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", w.name, i, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		vals.put("heap_mib", float64(ms.HeapInuse)/(1<<20))

		rttPace := t.rttPhase(dur(per*rttShare), rttCount)
		rttP := b.rtt.percentiles(0.5, 0.99)
		if !opt.traced {
			vals.put("rtt_p50_us", us(rttP[0])/rttPace)
			vals.put("raw.rtt_p50_us", us(rttP[0]))
		}
		vals.put("engine.rtt_p99_us", us(rttP[1]))

		var win windowStats
		var drainErr error
		if w.stepped {
			win = t.steppedPhase(steps)
		} else {
			win, drainErr = t.saturatePhase(dur(per * satShare))
		}
		if win.delivered == 0 || win.seconds <= 0 {
			return nil, fmt.Errorf("%s trial %d: nothing delivered in the window", w.name, i)
		}
		mpps := float64(win.delivered) / win.seconds / 1e6
		switch {
		case traced:
			mppsTraced = append(mppsTraced, mpps)
		case opt.traced:
			mppsPlain = append(mppsPlain, mpps)
		default:
			gbps := float64(win.bytes) * 8 / win.seconds / 1e9
			cpu := float64(win.cpu.Nanoseconds()) / float64(win.delivered)
			rate := win.pace
			if w.portRate > 0 {
				// The shaper sets the rate, not the host: it is rate accuracy
				// and is reported as measured. The CPU it costs is not.
				rate = 1
			}
			vals.put("delivered_mpps", mpps*rate)
			vals.put("goodput_gbps", gbps*rate)
			vals.put("cpu_ns_per_pkt", cpu/win.pace)
			vals.put("raw.delivered_mpps", mpps)
			vals.put("raw.goodput_gbps", gbps)
			vals.put("raw.cpu_ns_per_pkt", cpu)
			vals.put("host.pace", win.pace)
		}
		vals.put("engine.allocs_per_pkt", float64(win.mallocs)/float64(win.delivered))
		resSamples := b.res
		if w.deliver == deliverPush {
			resSamples = mergeSamples(b.portRes)
		}
		resP := resSamples.percentiles(0.5, 0.99)
		if traced {
			t.tracedMetrics(vals, win)
		}

		if w.deliver == deliverPush && drainErr == nil {
			drainErr = t.pacedPhase(dur(per * pacedShare))
			// On a push workload residence is the open-loop figure: due
			// time to sink at a fixed rate the engine can carry.
			resP = mergeSamples(b.portRes).percentiles(0.5, 0.99)
			vals.put("traffic.gen_late_p99_us", us(b.late.percentiles(0.99)[0]))
		}
		vals.put("engine.residence_p50_us", us(resP[0]))
		vals.put("engine.residence_p99_us", us(resP[1]))

		st, err := t.finish(drainErr)
		if err != nil {
			failures += fmt.Sprintf(" trial %d: %v;", i, err)
		}
		if traced && w.deliver == deliverPush {
			var gap uint64
			for _, ps := range t.cm.PortStats() {
				gap = max(gap, ps.P99GapNs)
			}
			vals.put("engine.gap_p99_us", us(float64(gap)))
		}
		lost := t.refused + st.PushedOutPackets
		if w.ingest == ingestAsync {
			lost = st.Rejected + st.DroppedPackets + st.PushedOutPackets
		}
		loss := float64(lost) / float64(t.offered)
		if w.stepped {
			// Loss is the stepped phase's: the warm pass and the rtt phase
			// run on an empty buffer and only dilute it.
			loss = float64(win.refused+win.stats.PushedOutPackets) / float64(win.offered)
		}
		vals.put("engine.loss_ratio", loss)
		if !opt.traced {
			vals.put("delivery_ratio", 1-loss)
		}
		vals.put("engine.pushed_out_per_kpkt", 1e3*float64(st.PushedOutPackets)/float64(t.offered))
		vals.put("engine.backpressure_waits_per_kpkt", 1e3*float64(t.waits)/float64(t.offered))
		lossRatios = append(lossRatios, loss)
		losses = append(losses, lost)
		pushed = append(pushed, st.PushedOutPackets)
		digests = append(digests, t.v.digest)
		res.OpsAttempted += t.offered + trialChecks
		res.OpsFailed += t.v.failed()
		if d := t.v.describe(); d != "" {
			failures += fmt.Sprintf(" trial %d:%s;", i, d)
		}
	}

	// Set-up takes tens of ms, so a handful of trials gives a loose median:
	// set up again, set-up and teardown checks only, until there are
	// opt.setups samples of it.
	for i := opt.trials; !opt.traced && i < opt.setups; i++ {
		runtime.GC()
		t, err := setUp(w, b, opt.seed, false, vals)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", w.name, i, err)
		}
		if _, err := t.finish(nil); err != nil {
			failures += fmt.Sprintf(" set-up %d: %v;", i, err)
		}
		res.OpsAttempted += t.offered + trialChecks
		res.OpsFailed += t.v.failed()
	}

	if w.stepped {
		// One goroutine, fixed steps: every trial of a seed must deliver
		// the same packets in the same order and lose the same ones.
		res.OpsAttempted++
		if slices.Max(digests) != slices.Min(digests) || slices.Max(pushed) != slices.Min(pushed) || slices.Max(losses) != slices.Min(losses) {
			res.OpsFailed++
			failures += fmt.Sprintf(" trials disagree: digests %x pushed-out %v lost %v;", digests, pushed, losses)
		}
		res.Digest = fmt.Sprintf("%016x", digests[0])
		res.PushedOut = &pushed[0]
	}
	res.LossRatio = slices.Max(lossRatios)

	if opt.traced {
		if err := layerMetrics(w, b, opt, vals, res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		vals.put("trace.overhead_pct", 100*(1-summarize(mppsTraced, "").Median/summarize(mppsPlain, "").Median))
		vals.put("traffic.clock_ns", opt.host.ClockNs)
		vals.put("host.calib_ns", opt.host.CalibNs)
		if err := writeTrace(filepath.Join(opt.traceDir, "trace-"+w.name+".json"), w.name, b.recorders()); err != nil {
			return nil, err
		}
	}
	res.Metrics = vals.stats()
	res.Failures = failures + res.Failures
	res.Correct = res.OpsFailed == 0
	res.Elapsed = time.Since(began).Seconds()
	return res, nil
}

// setUp builds a trial and records its set-up time, with the host probe
// read on either side of it.
func setUp(w *workload, b *runBufs, seed uint64, traced bool, vals collector) (*trial, error) {
	b.probe.reset()
	b.probe.sample()
	t, setup, err := newTrial(w, b, seed, traced)
	if err != nil {
		return nil, err
	}
	b.probe.sample()
	vals.put("setup_s", setup.Seconds()/b.probe.pace())
	vals.put("raw.setup_s", setup.Seconds())
	return t, nil
}

func mergeSamples(parts []*samples) *samples {
	n := 0
	for _, p := range parts {
		n += len(p.v)
	}
	out := newSamples(n)
	for _, p := range parts {
		out.v = append(out.v, p.v...)
	}
	return out
}

// tracedMetrics turns one traced trial's spans and counter deltas into
// per-layer values. It runs right after the saturate (or stepped) phase,
// before later phases add to the span totals.
func (t *trial) tracedMetrics(vals collector, win windowStats) {
	vals.put("engine.enqueue_ns_per_pkt", t.rec.perPkt(spEnqueue))
	if t.w.deliver != deliverPush {
		vals.put("engine.dequeue_ns_per_pkt", t.crec.perPkt(spDequeue))
		vals.put("engine.release_ns_per_pkt", t.crec.perPkt(spRelease))
		vals.put("engine.sink_ns_per_pkt", t.crec.perPkt(spVerify))
	} else {
		var ns, pkts int64
		for _, ps := range t.sink {
			ns += ps.rec.ns[spSink]
			pkts += ps.rec.pkts[spSink]
		}
		if pkts > 0 {
			vals.put("engine.sink_ns_per_pkt", float64(ns)/float64(pkts))
		}
		rate := float64(t.w.portRate) * float64(t.w.ports)
		vals.put("engine.shaped_rate_error_pct", 100*math.Abs(float64(win.bytes)/win.seconds-rate)/rate)
	}
	d := float64(win.delivered)
	vals.put("traffic.gen_ns_per_pkt", t.rec.perPkt(spGen))
	vals.put("engine.throttled_per_s", float64(win.stats.Throttled)/win.seconds)
	vals.put("engine.copied_bytes_per_pkt", float64(win.stats.CopiedBytes)/d)
	vals.put("engine.coalesced_wakes_per_kpkt", 1e3*float64(win.stats.CoalescedWakes)/d)
	vals.put("engine.ring_occ_peak", float64(win.ring))
	vals.put("engine.lent_peak_segments", float64(win.lent))
	vals.put("engine.pool_occ_peak_pct", 100*float64(win.resident)/float64(t.w.pool))
}
