package npqm

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the current method set")

// TestConcurrentQueueManagerAPI pins the exported method set of
// *ConcurrentQueueManager, with signatures, to testdata/api.golden. The
// facade embeds the engine, so a method exported (or removed, or re-typed)
// in internal/engine changes the public surface without any edit at this
// level; this test turns that into a reviewed edit of the golden file
// (go test -run TestConcurrentQueueManagerAPI -update).
func TestConcurrentQueueManagerAPI(t *testing.T) {
	const golden = "testdata/api.golden"
	typ := reflect.TypeOf((*ConcurrentQueueManager)(nil))
	var b strings.Builder
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		var in, out []string
		for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
			in = append(in, m.Type.In(j).String())
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			out = append(out, m.Type.Out(j).String())
		}
		fmt.Fprintf(&b, "%s(%s) (%s)\n", m.Name, strings.Join(in, ", "), strings.Join(out, ", "))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exported method set of *ConcurrentQueueManager differs from %s (rerun with -update if intended)\n--- got\n%s--- want\n%s",
			golden, got, want)
	}
}
