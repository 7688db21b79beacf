package npqm

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProgramOutput runs the deterministic sample programs and the report
// tool and compares what they print, byte for byte, with
// testdata/examples/<name>.golden — so a change that claims the examples
// are unaffected is checked by go test (rerun with -update after an
// intended change). examples/ethswitch and examples/concurrent print
// wall-clock figures and are not covered.
func TestProgramOutput(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to run the programs with")
	}
	for _, dir := range []string{
		"examples/quickstart", "examples/atmswitch", "examples/iprouter", "examples/npucompare", "cmd/qmtables",
	} {
		t.Run(dir, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(goTool, "run", "./"+dir)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", filepath.Base(dir)+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output of ./%s differs from %s (rerun with -update if intended)\n--- got\n%s--- want\n%s", dir, golden, got, want)
			}
		})
	}
}
