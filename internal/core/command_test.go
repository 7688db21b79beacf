package core

import (
	"strings"
	"testing"
)

// TestTable4Latencies: every command's micro-program schedule length must
// equal the latency published in Table 4.
func TestTable4Latencies(t *testing.T) {
	want := map[Command]int{
		CmdEnqueue:             10,
		CmdRead:                10,
		CmdOverwrite:           10,
		CmdMove:                11,
		CmdDelete:              7,
		CmdOverwriteSegLen:     7,
		CmdDequeue:             11,
		CmdOverwriteSegLenMove: 12,
		CmdOverwriteSegMove:    12,
	}
	for cmd, cycles := range want {
		if got := cmd.Cycles(); got != cycles {
			t.Errorf("%v: micro-program schedules %d cycles, Table 4 says %d", cmd, got, cycles)
		}
		if got := cmd.PaperCycles(); got != cycles {
			t.Errorf("%v: PaperCycles = %d, want %d", cmd, got, cycles)
		}
	}
	if len(Commands()) != len(want) {
		t.Fatalf("command set has %d entries, Table 4 has %d", len(Commands()), len(want))
	}
}

func TestTable4Helper(t *testing.T) {
	tbl := Table4()
	if len(tbl) != len(Commands()) {
		t.Fatalf("Table4 has %d rows", len(tbl))
	}
	for cmd, cycles := range tbl {
		if cycles != cmd.PaperCycles() {
			t.Errorf("%v: %d != %d", cmd, cycles, cmd.PaperCycles())
		}
	}
}

func TestMicroprogramStructure(t *testing.T) {
	for _, cmd := range Commands() {
		mp := microprograms[cmd]
		if len(mp) == 0 {
			t.Fatalf("%v: empty micro-program", cmd)
		}
		// The first step must produce the data-memory address (Section 6.1:
		// the data access starts right after the first pointer access).
		if mp[0].Cycles != 2 {
			t.Errorf("%v: first step is %q (%d cycles), want a 2-cycle pointer read",
				cmd, mp[0].Name, mp[0].Cycles)
		}
		for _, op := range mp {
			if op.Cycles < 0 || op.Cycles > 2 {
				t.Errorf("%v: step %q has impossible cost %d", cmd, op.Name, op.Cycles)
			}
			if op.Name == "" {
				t.Errorf("%v: unnamed step", cmd)
			}
		}
	}
}

func TestCommandStrings(t *testing.T) {
	for _, cmd := range Commands() {
		s := cmd.String()
		if s == "" || strings.HasPrefix(s, "command(") {
			t.Errorf("command %d has no name", int(cmd))
		}
	}
	if Command(99).String() != "command(99)" {
		t.Fatal("unknown command must render numerically")
	}
	// Spot-check the paper's exact names.
	if CmdOverwriteSegLenMove.String() != "Overwrite_Segment_length&Move" {
		t.Fatalf("name = %q", CmdOverwriteSegLenMove)
	}
}

func TestTouchesDataAndIsWrite(t *testing.T) {
	if CmdDelete.TouchesData() || CmdOverwriteSegLen.TouchesData() || CmdMove.TouchesData() {
		t.Fatal("pointer-only commands must not touch data")
	}
	if !CmdEnqueue.TouchesData() || !CmdDequeue.TouchesData() || !CmdRead.TouchesData() {
		t.Fatal("data commands must touch data")
	}
	if !CmdEnqueue.IsWrite() || CmdDequeue.IsWrite() || CmdRead.IsWrite() {
		t.Fatal("IsWrite misclassifies")
	}
}

// TestHeadlineThroughput reproduces Section 6.1's arithmetic: the
// enqueue+dequeue mix averages 10.5 cycles -> 84 ns -> ~12 Mops/s ->
// ~6.1 Gbps of 64-byte segments (the paper rounds to 6.145).
func TestHeadlineThroughput(t *testing.T) {
	mean := float64(CmdEnqueue.Cycles()+CmdDequeue.Cycles()) / 2
	if mean != 10.5 {
		t.Fatalf("forwarding mix mean = %v cycles, want 10.5", mean)
	}
	ops := OpsPerSecond(mean)
	if ops < 11.8e6 || ops > 12.1e6 {
		t.Fatalf("ops/s = %v, want ~12M", ops)
	}
	gbps := HeadlineThroughputGbps()
	if gbps < 5.9 || gbps > 6.2 {
		t.Fatalf("headline throughput = %v Gbps, paper says 6.145", gbps)
	}
}

func TestOpsPerSecondPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OpsPerSecond(0)
}
