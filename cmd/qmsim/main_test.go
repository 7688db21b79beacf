package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// firstRow runs qmsim with args and returns the first CSV row keyed by the
// header's column names. Every engine run ends in CheckInvariants and
// Close, so a nil error is also a conservation check.
func firstRow(t *testing.T, args string) map[string]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(strings.Fields(args), &out); err != nil {
		t.Fatalf("qmsim %s: %v", args, err)
	}
	r := csv.NewReader(&out)
	r.FieldsPerRecord = -1 // the per-port/class/tenant blocks have their own widths
	recs, err := r.ReadAll()
	if err != nil || len(recs) < 2 || len(recs[0]) != len(recs[1]) {
		t.Fatalf("qmsim %s: no header and row (%v):\n%s", args, err, out.String())
	}
	row := make(map[string]string, len(recs[0]))
	for i, col := range recs[0] {
		row[col] = recs[1][i]
	}
	return row
}

func TestModels(t *testing.T) {
	for args, col := range map[string]string{
		"-model ddr -banks 4 -sched fcfs -rw -decisions 20000": "loss",
		"-model mms -load 5.5 -depth 4":                        "total_cycles",
		"-model ixp -queues 16 -engines 2":                     "kpps",
		"-model npu -copy dma -clock 200":                      "transit_mbps",
		"":                                                     "load_gbps", // no flags: the default model, mms
	} {
		if row := firstRow(t, args); row[col] == "" {
			t.Errorf("qmsim %s: no %s column in %v", args, col, row)
		}
	}
}

func TestEngine(t *testing.T) {
	type engineCase struct{ args, offered string }
	cases := []engineCase{
		{"-model engine -ops 10000 -policy lqd -pool 2048 -zipf 1.2 -pktmix imix -shards 4", "10000"},
		{"-model engine -ops 10000 -egress drr -classes 4 -class-egress wrr -class-weights 4,2,1,1 -tenants 2 -tenant-egress wrr -residence 64", "10000"},
		// An engine flag alone selects the engine (the parent ran mms here).
		{"-datapath ring -ops 20000", "20000"},
		// Fewer packets than producers: the remainder is still offered (the
		// parent offered 4 × (3/4) = 0).
		{"-ops 3 -parallel 4", "3"},
	}
	for _, datapath := range []string{"sync", "ring"} {
		for _, delivery := range []string{"copy", "view"} {
			for _, egress := range []string{"", " -ports 4 -rate 1000000000"} {
				cases = append(cases, engineCase{
					"-model engine -ops 20000 -flows 4096 -shards 4 -datapath " + datapath + " -delivery " + delivery + egress, "20000"})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			row := firstRow(t, tc.args)
			if got := row["offered"]; got != tc.offered {
				t.Errorf("offered = %q, want %s", got, tc.offered)
			}
			// Fragmentation reads off the row: between one run per packet
			// and one per segment (pkt_bytes is the mix's mean size).
			runs, err1 := strconv.ParseFloat(row["runs_per_pkt"], 64)
			pkt, err2 := strconv.ParseFloat(row["pkt_bytes"], 64)
			if segs := math.Ceil(pkt / 64); err1 != nil || err2 != nil || runs < 1 || runs > segs {
				t.Errorf("runs_per_pkt = %q, want a number in [1, %v]", row["runs_per_pkt"], segs)
			}
			// So does the share of packets built on a reused whole chain.
			if whole, err := strconv.ParseFloat(row["whole_per_pkt"], 64); err != nil || whole < 0 || whole > 1 {
				t.Errorf("whole_per_pkt = %q, want a number in [0, 1]", row["whole_per_pkt"])
			}
		})
	}
	// A flow space the engine cannot build is a named error, not a panic.
	if err := run(strings.Fields("-flows -3"), &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "NumFlows") {
		t.Errorf("qmsim -flows -3: error %v, want one naming NumFlows", err)
	}
}
