package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npqm"
)

func testOptions(t *testing.T, traced bool) options {
	t.Helper()
	return options{
		seed: 7, seconds: 0.2, trials: 2, setups: 3, traced: traced,
		traceDir: t.TempDir(),
		host:     hostInfo{ClockNs: clockCost(), CalibNs: 1},
	}
}

// TestSmokeAllWorkloads runs every workload end to end at ~100 ms windows
// with verification on, untraced and traced, and requires every metric the
// driver line promises.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := testOptions(t, traced)
				res, err := runWorkload(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.OpsFailed != 0 {
					t.Fatalf("ops_failed %d of %d:%s", res.OpsFailed, res.OpsAttempted, res.Failures)
				}
				if res.OpsAttempted == 0 {
					t.Fatal("nothing attempted")
				}
				if w.stepped {
					if res.Digest == "" || res.PushedOut == nil || *res.PushedOut == 0 || res.LossRatio < 0.3 {
						t.Fatalf("overload workload: digest %q pushed-out %v loss %g", res.Digest, res.PushedOut, res.LossRatio)
					}
				} else if res.LossRatio != 0 {
					t.Fatalf("loss_ratio %g on a workload that must lose nothing", res.LossRatio)
				}
				line, err := driverLineFor(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !traced {
					for _, d := range endToEnd {
						if v := line.Metrics[d.name].Value; v <= 0 {
							t.Errorf("end-to-end metric %s = %g, must be positive", d.name, v)
						}
					}
				} else {
					if _, err := os.Stat(filepath.Join(opt.traceDir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
					if len(res.Budget) == 0 {
						t.Error("no per-layer budget")
					}
				}
			})
		}
	}
}

// TestOverloadRepeatsExactly: one seed, two runs, identical drop decisions
// and delivery order; another seed, another digest.
func TestOverloadRepeatsExactly(t *testing.T) {
	w, err := findWorkload("overload-lqd-steps")
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(t, false)
	opt.seconds = 0.1
	a, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest || *a.PushedOut != *b.PushedOut || a.LossRatio != b.LossRatio {
		t.Fatalf("two runs of seed %d differ: %s/%d/%g vs %s/%d/%g", opt.seed,
			a.Digest, *a.PushedOut, a.LossRatio, b.Digest, *b.PushedOut, b.LossRatio)
	}
	opt.seed++
	c, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Fatal("digest does not depend on the seed")
	}
}

// TestLeakedViewFailsTheTrial drives a real engine and keeps one view: the
// whole-trial checks must count it.
func TestLeakedViewFailsTheTrial(t *testing.T) {
	w, err := findWorkload("mtu1500-view-pull")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := newTrial(w, newRunBufs(w, false), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.nextSlot()
	tr.stage(s, 0)
	if err := tr.offer(s); err != nil {
		t.Fatal(err)
	}
	tr.offered++
	out := tr.cm.DequeueNextViewBatch(1)
	if len(out) != 1 {
		t.Fatalf("got %d views", len(out))
	}
	tr.v.viewPacket(out[0].Flow, out[0].Bytes, out[0].View)
	tr.delivered.Add(1)
	// No ReleaseViews: the view leaks.
	if _, err := tr.finish(nil); err != nil {
		t.Logf("finish: %v", err)
	}
	if tr.v.fails[failLeak] != 1 || tr.v.fails[failPool] != 1 {
		t.Fatalf("leaked view not counted:%s", tr.v.describe())
	}
	out[0].View.Release()
}

// TestHarnessAllocatesNothingPerPacket covers the harness's own per-packet
// work in the saturate loop: staging a window, filling a reservation,
// verifying a buffer and verifying a view.
func TestHarnessAllocatesNothingPerPacket(t *testing.T) {
	w, err := findWorkload("imix-zipf-ring-pull")
	if err != nil {
		t.Fatal(err)
	}
	src, err := newSource(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trial{w: w, b: newRunBufs(w, false), src: src, v: newVerifier(numFlows, false, true)}
	tr.fill.fn = tr.fill.fill
	qm, err := npqm.NewQueueManager(numFlows, 4096)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		win := tr.nextWindow(window)
		for i := range win {
			s := &win[i]
			tr.stage(s, tr.sampleStamp())
			if stamp := tr.v.copyPacket(s.flow, s.buf[:s.size], s.size); stamp != 0 {
				tr.b.res.add(tr.sinceStamp(stamp))
			}
			// The same packet again through a reservation and a view.
			tr.v.next[s.flow]--
			r, err := qm.ReservePacket(s.flow, s.size)
			if err != nil {
				t.Fatal(err)
			}
			tr.fill.src, tr.fill.off = s.buf[:s.size], 0
			r.Range(tr.fill.fn)
			if err := r.Commit(); err != nil {
				t.Fatal(err)
			}
			view, err := qm.DequeuePacketView(s.flow)
			if err != nil {
				t.Fatal(err)
			}
			tr.v.viewPacket(s.flow, s.size, view)
			view.Release()
		}
	})
	if allocs != 0 {
		t.Fatalf("harness allocates %.1f times per %d-packet window", allocs, window)
	}
	if tr.v.failed() != 0 {
		t.Fatalf("verification failed:%s", tr.v.describe())
	}
}

// TestBenchmarkJSONMatchesRegistry keeps the root BENCHMARK.json and the
// metric and workload tables in this package from drifting apart.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the fixed step counts are stated for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, registry has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the registry", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, registry has %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v differs from registry %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	var everywhere []metricDef
	for _, d := range perLayer {
		if d.everywhere {
			everywhere = append(everywhere, d)
		}
	}
	if len(spec.PerLayer) != len(everywhere) {
		t.Fatalf("%d per-layer metrics, registry has %d measured on every workload", len(spec.PerLayer), len(everywhere))
	}
	for i, m := range spec.PerLayer {
		d := everywhere[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v differs from registry %+v", i, m, d)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "x", better: "lower", bound: 0.10}
	higher := metricDef{name: "y", better: "higher", bound: 0.10}
	tight := func(m float64) stat {
		return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, Min: m * 0.98, Max: m * 1.02, N: 5}
	}
	noisy := func(m float64) stat {
		return stat{Median: m, Q1: m * 0.9, Q3: m * 1.1, Min: m * 0.8, Max: m * 1.2, N: 5}
	}
	cases := []struct {
		a, b stat
		d    metricDef
		want verdict
	}{
		{tight(100), tight(104), lower, unchanged},
		{tight(100), tight(115), lower, regressed},
		{tight(100), tight(80), lower, improved},
		{tight(100), tight(85), higher, regressed},
		{tight(100), tight(120), higher, improved},
		{noisy(100), noisy(104), lower, unresolved},
		{noisy(100), tight(50), lower, improved}, // every trial of b beats every trial of a
	}
	for i, c := range cases {
		if got, _, _ := judge(c.a, c.b, c.d, false); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
	// An absolute bound needs no non-zero baseline: allocs_per_pkt at 0.
	allocs := metricDef{name: "engine.allocs_per_pkt", better: "lower", bound: absGated["engine.allocs_per_pkt"]}
	flat := func(m float64) stat { return stat{Median: m, Q1: m, Q3: m, Min: m, Max: m, N: 5} }
	for i, c := range []struct {
		b    float64
		want verdict
	}{{0.04, unchanged}, {0.06, regressed}} {
		if got, _, _ := judge(flat(0), flat(c.b), allocs, true); got != c.want {
			t.Errorf("absolute case %d: %s, want %s", i, got, c.want)
		}
	}
}

// TestPaceLeavesOutTheSlowestTenth: one reading of ten times the usual (the
// probe's thread descheduled) must not move the pace; a slowdown that lasts
// must.
func TestPaceLeavesOutTheSlowestTenth(t *testing.T) {
	p := &hostProbe{}
	if got := p.pace(); got != 1 {
		t.Fatalf("pace without readings = %g, want 1", got)
	}
	for i := 0; i < 19; i++ {
		p.reads = append(p.reads, int32(refProbeNs))
	}
	p.reads = append(p.reads, 10*int32(refProbeNs))
	if got := p.pace(); got != 1 {
		t.Fatalf("pace with one slow reading in twenty = %g, want 1", got)
	}
	for i := range p.reads {
		p.reads[i] = int32(refProbeNs)
		if i%2 == 0 {
			p.reads[i] *= 2
		}
	}
	if got := p.pace(); got < 1.4 || got > 1.5 {
		t.Fatalf("pace with every other reading doubled = %g, want 1.44", got)
	}
}
