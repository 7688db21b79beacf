package ddr

import (
	"testing"
	"testing/quick"
)

func TestPortDir(t *testing.T) {
	cases := []struct {
		p    Port
		want Op
	}{
		{NetWrite, Write},
		{CPUWrite, Write},
		{NetRead, Read},
		{CPURead, Read},
	}
	for _, c := range cases {
		if got := c.p.Dir(); got != c.want {
			t.Errorf("%v.Dir() = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String broken")
	}
	if NetWrite.String() != "net-wr" || CPURead.String() != "cpu-rd" {
		t.Fatal("Port.String broken")
	}
	if Op(9).String() == "" || Port(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
	r := Request{Port: NetRead, Op: Read, Bank: 3, Addr: 0x40}
	if r.String() == "" {
		t.Fatal("Request.String broken")
	}
}

func TestFIFOOrdering(t *testing.T) {
	f := NewFIFO(0)
	for i := 0; i < 100; i++ {
		if !f.Push(Request{Bank: i}) {
			t.Fatal("unbounded FIFO rejected push")
		}
	}
	for i := 0; i < 100; i++ {
		r, ok := f.Pop()
		if !ok || r.Bank != i {
			t.Fatalf("pop %d: got %v ok=%v", i, r, ok)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty FIFO succeeded")
	}
}

func TestFIFOBounded(t *testing.T) {
	f := NewFIFO(2)
	if !f.Push(Request{}) || !f.Push(Request{}) {
		t.Fatal("pushes below capacity rejected")
	}
	if f.Push(Request{}) {
		t.Fatal("push above capacity accepted")
	}
	if !f.Full() {
		t.Fatal("Full() = false at capacity")
	}
	f.Pop()
	if f.Full() {
		t.Fatal("Full() = true after pop")
	}
	if !f.Push(Request{}) {
		t.Fatal("push after pop rejected")
	}
}

func TestFIFOPeek(t *testing.T) {
	f := NewFIFO(0)
	if _, ok := f.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	f.Push(Request{Bank: 7})
	r, ok := f.Peek()
	if !ok || r.Bank != 7 {
		t.Fatal("peek wrong")
	}
	if f.Len() != 1 {
		t.Fatal("peek consumed element")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order.
func TestFIFOPropertyOrder(t *testing.T) {
	err := quick.Check(func(ops []bool) bool {
		f := NewFIFO(0)
		next := 0   // next value to push
		expect := 0 // next value expected from pop
		for _, push := range ops {
			if push {
				f.Push(Request{Bank: next})
				next++
			} else if r, ok := f.Pop(); ok {
				if r.Bank != expect {
					return false
				}
				expect++
			}
		}
		// Drain.
		for {
			r, ok := f.Pop()
			if !ok {
				break
			}
			if r.Bank != expect {
				return false
			}
			expect++
		}
		return expect == next && f.Len() == 0
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOCompaction(t *testing.T) {
	f := NewFIFO(0)
	// Grow then shrink repeatedly; ordering must survive compaction.
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			f.Push(Request{Bank: i})
		}
		for i := 0; i < 200; i++ {
			r, ok := f.Pop()
			if !ok || r.Bank != i {
				t.Fatalf("round %d pop %d: %v ok=%v", round, i, r, ok)
			}
		}
	}
}
