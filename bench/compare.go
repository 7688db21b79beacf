package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict is -compare's reading of one end-to-end metric on one workload.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // spread wider than the bound
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

// absGated are the two metrics of the issue's ten that -compare gates by
// an absolute rise, not a share of the median: they are 0 or close to it
// on most workloads. BENCHMARK.json knows only relative bounds, so there
// they are per-layer metrics.
var absGated = map[string]float64{
	"engine.loss_ratio":     0.0005,
	"engine.allocs_per_pkt": 0.05,
}

// judge compares b against the baseline a for a metric with the given
// direction and bound. worse is how far b's median moved in the bad
// direction and spread the wider interquartile range of the two: as shares
// of the median, or in the metric's own unit when the bound is absolute.
func judge(a, b stat, d metricDef, absolute bool) (v verdict, worse, spread float64) {
	worse, spread = b.Median-a.Median, max(a.Q3-a.Q1, b.Q3-b.Q1)
	if !absolute {
		if a.Median != 0 {
			worse /= a.Median
		} else {
			worse = 0
		}
		spread = max(a.spread(), b.spread())
	}
	allBetter := b.Max < a.Min
	if d.better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	switch {
	case spread > d.bound:
		// Too noisy to call, unless every trial of b beats every trial of a.
		if allBetter {
			return improved, worse, spread
		}
		return unresolved, worse, spread
	case worse > d.bound:
		return regressed, worse, spread
	case worse < -d.bound:
		return improved, worse, spread
	}
	return unchanged, worse, spread
}

// compareFiles prints every metric x workload of two result files side by
// side and returns an error (so the command exits non-zero) on any
// regression, any rise in the failed-operation share, or a change in the
// exact counts of the deterministic workload under one seed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  calib %.1f ns  seed %d  seconds %g\n", pathA, a.Host.GitCommit, a.Host.CalibNs, a.Seed, a.Seconds)
	fmt.Fprintf(w, "b: %s  commit %s  calib %.1f ns  seed %d  seconds %g\n", pathB, b.Host.GitCommit, b.Host.CalibNs, b.Seed, b.Seconds)
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Fprintf(w, "warning: different hosts (%s x%d vs %s x%d); deltas price the host too\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	counts := map[verdict]int{}
	var bad []string
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if _, ok := b.Workloads[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		fmt.Fprintf(w, "\n== %s\n", n)
		fmt.Fprintf(w, "   ops_failed/ops_attempted  a %d/%d  b %d/%d\n", ra.OpsFailed, ra.OpsAttempted, rb.OpsFailed, rb.OpsAttempted)
		if share(rb) > share(ra) {
			bad = append(bad, n+": failed-operation share rose")
		}
		if ra.Digest != "" && a.Seed == b.Seed && a.Seconds == b.Seconds && a.Trials == b.Trials && a.Trace == b.Trace {
			same := ra.Digest == rb.Digest && *ra.PushedOut == *rb.PushedOut && ra.LossRatio == rb.LossRatio
			fmt.Fprintf(w, "   exact: digest %s/%s  pushed_out %d/%d  loss_ratio %.9g/%.9g  identical=%v\n",
				ra.Digest, rb.Digest, *ra.PushedOut, *rb.PushedOut, ra.LossRatio, rb.LossRatio, same)
			if !same {
				bad = append(bad, n+": drop decisions or delivery order changed under one seed")
			}
		}
		fmt.Fprintf(w, "   %-32s %12s %12s %9s %8s %8s  %s\n", "metric", "a median", "b median", "worse by", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			sa, oka := ra.Metrics[d.name]
			sb, okb := rb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			v, worse, spread := judge(sa, sb, d, false)
			counts[v]++
			fmt.Fprintf(w, "   %-32s %12.6g %12.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				d.name, sa.Median, sb.Median, 100*worse, 100*d.bound, 100*spread, v)
			if v == regressed {
				bad = append(bad, fmt.Sprintf("%s: %s worse by %.2f%% of %.6g %s (bound %.2f%%)", n, d.name, 100*worse, sa.Median, d.unit, 100*d.bound))
			}
		}
		for _, d := range perLayer {
			sa, oka := ra.Metrics[d.name]
			sb, okb := rb.Metrics[d.name]
			if !oka || !okb {
				continue
			}
			if bound, ok := absGated[d.name]; ok {
				d.bound = bound
				v, worse, spread := judge(sa, sb, d, true)
				counts[v]++
				fmt.Fprintf(w, "   %-32s %12.6g %12.6g %+9.4g %8.4g %8.4g  %s (absolute, %s)\n",
					d.name, sa.Median, sb.Median, worse, bound, spread, v, d.unit)
				if v == regressed {
					bad = append(bad, fmt.Sprintf("%s: %s worse by %.6g %s (bound %g)", n, d.name, worse, d.unit, bound))
				}
				continue
			}
			delta := 0.0
			if sa.Median != 0 {
				delta = 100 * (sb.Median - sa.Median) / sa.Median
			}
			fmt.Fprintf(w, "   %-32s %12.6g %12.6g %+8.2f%% %8s %7.2f%%  (no bound; of %.6g %s)\n",
				d.name, sa.Median, sb.Median, delta, "-", 100*max(sa.spread(), sb.spread()), sa.Median, d.unit)
		}
	}
	fmt.Fprintf(w, "\nimproved %d  unchanged %d  regressed %d  unresolved %d\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(w, "FAIL", m)
		}
		return errors.New("comparison failed")
	}
	return nil
}

func share(r *workloadResult) float64 {
	if r.OpsAttempted == 0 {
		return 0
	}
	return float64(r.OpsFailed) / float64(r.OpsAttempted)
}
