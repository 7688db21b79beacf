package engine

// The stepped clock tests drive engine time with, and the guard that keeps
// the wall clock behind clock.go.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// stepClock is engine time set by hand.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) now() int64 { return c.ns.Load() }

// stepped is an engine on a stepClock whose test is its pacer: no pacer
// goroutine runs, and ports are served exactly when the test says what
// time it is. Everything happens on the test's goroutine, so what a sink
// saw after tick returns is what it will ever see for that instant.
type stepped struct {
	*Engine
	clk *stepClock
}

func newStepped(t *testing.T, cfg Config) stepped {
	t.Helper()
	clk := &stepClock{}
	e, err := newWithClock(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	e.pacer.started = true // Serve finds the pacer running: this test is it
	e.pacer.init(0)
	return stepped{e, clk}
}

// settle serves every port that has something to do at the current
// instant, kicked or due, until only time or traffic can bring more.
func (s stepped) settle() {
	for s.pacer.step(s.clk.now()) == 0 {
	}
}

// tick moves engine time forward by n pacer ticks, settling at each.
func (s stepped) tick(n int) {
	for ; n > 0; n-- {
		s.clk.ns.Add(pacerTick)
		s.settle()
	}
}

// TestWallClockOnlyBehindClock: outside clock.go, no non-test file of this
// package reads the wall clock, sleeps on it, or holds a time.Time. A
// second time base is how the shaped path became untestable without
// sleeping; this keeps it from growing back.
func TestWallClockOnlyBehindClock(t *testing.T) {
	banned := map[string]bool{
		"Now": true, "Since": true, "Until": true, "After": true, "Sleep": true,
		"Tick": true, "NewTimer": true, "NewTicker": true, "Time": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if name == "clock.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && banned[sel.Sel.Name] {
				t.Errorf("%s: time.%s outside clock.go", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
	if checked < 10 {
		t.Fatalf("checked only %d files: run from the package directory", checked)
	}
}
