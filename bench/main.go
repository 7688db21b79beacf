// Command bench is the repository's one benchmark: six named workloads
// driven through the public npqm facade, end-to-end metrics with
// regression bounds, and (with -trace 1) a per-layer cost budget from
// spans around the facade calls and replays of each internal layer alone.
// See README.md in this directory.
//
//	go run -C bench . -workload all -out out/a.json
//	go run -C bench . -workload min64-sync-pull -trace 1
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const schemaVersion = "npqm-bench/1"

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema    string                     `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trials    int                        `json:"trials"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// driverLine is the last line of standard output: the contract with
// whatever runs the benchmark.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload `name`, or all")
	seed := fs.Uint64("seed", 1, "seed for traffic.FlowDist / traffic.SizeMix; the engine sees only the packets")
	seconds := fs.Float64("seconds", refSeconds, "measured time per workload, split over the trials")
	trace := fs.Int("trace", 0, "1: record spans and replay each layer for the per-layer budget; 0: end-to-end metrics")
	out := fs.String("out", "", "write the result JSON to `file`")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		todo = []*workload{w}
	}

	host := readHost()
	file := resultFile{
		Schema: schemaVersion, Host: host, Seed: *seed, Seconds: *seconds,
		Trials: refTrials, Trace: *trace == 1, Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernel, host.GitCommit)
	fmt.Printf("host.calib_ns %.1f  traffic.clock_ns %.1f  seed %d  seconds %g  trials %d  trace %d\n",
		host.CalibNs, host.ClockNs, *seed, *seconds, refTrials, *trace)
	opt := options{seed: *seed, seconds: *seconds, trials: refTrials, traced: *trace == 1, traceDir: outDir(), host: host, setups: setupSamples}
	for _, w := range todo {
		res, err := runWorkload(w, opt)
		if err != nil {
			return err
		}
		file.Workloads[w.name] = res
		printWorkload(w, res, opt.traced)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	// One line per workload, the last one last: a driver runs one workload
	// at a time and reads the final line.
	for _, w := range todo {
		line, err := driverLineFor(file.Workloads[w.name], opt.traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// outDir is out/ beside this source file (git-ignored), wherever the
// binary runs from: bench/run.sh runs it from the repository root, go run
// -C bench from this directory.
func outDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "out")
}

func driverLineFor(res *workloadResult, traced bool) (driverLine, error) {
	line := driverLine{
		Correct: res.Correct, Attempted: res.OpsAttempted, Failed: res.OpsFailed,
		Metrics: map[string]driverValue{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if !d.everywhere {
			continue
		}
		s, ok := res.Metrics[d.name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = driverValue{Value: s.Median, Unit: d.unit}
	}
	return line, nil
}

func printWorkload(w *workload, res *workloadResult, traced bool) {
	fmt.Printf("\n== %s  (%.1f s)\n   %s\n", w.name, res.Elapsed, w.why)
	fmt.Printf("   ops_attempted %d  ops_failed %d  loss_ratio %.6g", res.OpsAttempted, res.OpsFailed, res.LossRatio)
	if res.Digest != "" {
		fmt.Printf("  pushed_out %d  delivery_digest %s", *res.PushedOut, res.Digest)
	}
	fmt.Println()
	if res.Failures != "" {
		fmt.Printf("   FAILED:%s\n", res.Failures)
	}
	fmt.Printf("   %-36s %14s %-7s %9s %3s\n", "metric", "median", "unit", "iqr/med", "n")
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end metrics (no layer prefix) first, then by layer.
		ei, ej := !strings.Contains(names[i], "."), !strings.Contains(names[j], ".")
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		s := res.Metrics[n]
		fmt.Printf("   %-36s %14.6g %-7s %8.1f%% %3d\n", n, s.Median, s.Unit, 100*s.spread(), s.N)
	}
	if traced && len(res.Budget) > 0 {
		fmt.Printf("   per-layer budget, ns per delivered packet (ref %.2f Mpps):\n", w.refMpps)
		for _, r := range res.Budget {
			fmt.Printf("     %-22s %10.1f  %s\n", r.Layer, r.NsPerPkt, r.Note)
		}
	}
}
