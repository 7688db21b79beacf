package core

import (
	"bytes"
	"errors"
	"testing"

	"npqm/internal/queue"
)

func newTestMMS(t *testing.T) *MMS {
	t.Helper()
	m, err := New(Config{NumQueues: 16, NumSegments: 64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.NumQueues != queue.DefaultNumQueues {
		t.Fatalf("queues = %d", cfg.NumQueues)
	}
	if cfg.Ports != 4 || cfg.FIFODepth != 2 || cfg.DataBanks != 8 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestDoFunctionalRoundTrip(t *testing.T) {
	m := newTestMMS(t)
	// Enqueue two segments of a packet on flow 3.
	r1, err := m.Do(Request{Cmd: CmdEnqueue, Queue: 3, Payload: []byte{1, 2}, EOP: false})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExecCycles != 10 {
		t.Fatalf("enqueue cycles = %d", r1.ExecCycles)
	}
	if _, err := m.Do(Request{Cmd: CmdEnqueue, Queue: 3, Payload: []byte{3}, EOP: true}); err != nil {
		t.Fatal(err)
	}
	// Read head non-destructively.
	rr, err := m.Do(Request{Cmd: CmdRead, Queue: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Payload, []byte{1, 2}) {
		t.Fatalf("read payload = %v", rr.Payload)
	}
	// Overwrite the head.
	if _, err := m.Do(Request{Cmd: CmdOverwrite, Queue: 3, Payload: []byte{9, 9}}); err != nil {
		t.Fatal(err)
	}
	// Move the packet to flow 5.
	mv, err := m.Do(Request{Cmd: CmdMove, Queue: 3, Dest: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mv.Moved != 2 {
		t.Fatalf("moved = %d", mv.Moved)
	}
	// Dequeue both segments from flow 5.
	d1, err := m.Do(Request{Cmd: CmdDequeue, Queue: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Payload, []byte{9, 9}) || d1.ExecCycles != 11 {
		t.Fatalf("dequeue = %+v", d1)
	}
	d2, err := m.Do(Request{Cmd: CmdDequeue, Queue: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Info.EOP {
		t.Fatal("EOP lost")
	}
	cmds, cycles := m.DQM.Executed()
	if cmds != 7 {
		t.Fatalf("executed = %d", cmds)
	}
	if cycles != 10+10+10+10+11+11+11 {
		t.Fatalf("cycles = %d", cycles)
	}
	if err := m.Queues().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoCombinedCommands(t *testing.T) {
	m := newTestMMS(t)
	m.Do(Request{Cmd: CmdEnqueue, Queue: 1, Payload: []byte{1, 2, 3, 4}, EOP: true})
	r, err := m.Do(Request{Cmd: CmdOverwriteSegLenMove, Queue: 1, Dest: 2, Length: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Moved != 1 || r.ExecCycles != 12 {
		t.Fatalf("resp = %+v", r)
	}
	info, _, _ := m.Queues().ReadHead(2)
	if info.Len != 2 {
		t.Fatalf("len = %d", info.Len)
	}
	if _, err := m.Do(Request{Cmd: CmdOverwriteSegMove, Queue: 2, Dest: 3, Payload: []byte{7}}); err != nil {
		t.Fatal(err)
	}
	d, err := m.Do(Request{Cmd: CmdDequeue, Queue: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Payload, []byte{7}) {
		t.Fatalf("payload = %v", d.Payload)
	}
}

func TestDoDeleteFamily(t *testing.T) {
	m := newTestMMS(t)
	m.Do(Request{Cmd: CmdEnqueue, Queue: 0, Payload: []byte{1}, EOP: true})
	if _, err := m.Do(Request{Cmd: CmdDelete, Queue: 0}); err != nil {
		t.Fatal(err)
	}
	if n, _ := m.Queues().Len(0); n != 0 {
		t.Fatalf("len = %d", n)
	}
	if _, err := m.Do(Request{Cmd: CmdDelete, Queue: 0}); err == nil {
		t.Fatal("delete on empty queue succeeded")
	}
}

func TestDoUnknownCommand(t *testing.T) {
	m := newTestMMS(t)
	if _, err := m.Do(Request{Cmd: Command(42)}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestDoErrorsPropagate(t *testing.T) {
	m := newTestMMS(t)
	if _, err := m.Do(Request{Cmd: CmdDequeue, Queue: 0}); !errors.Is(err, queue.ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
	// Errors must not count as executed commands.
	if n, _ := m.DQM.Executed(); n != 0 {
		t.Fatalf("executed = %d", n)
	}
}

func TestSegmentationReassembly(t *testing.T) {
	m := newTestMMS(t)
	data := bytes.Repeat([]byte{0xab}, 3*queue.SegmentBytes+7)
	n, err := m.Seg.Push(9, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("segments = %d", n)
	}
	got, segs, err := m.Reasm.Pop(9)
	if err != nil {
		t.Fatal(err)
	}
	if segs != 4 || !bytes.Equal(got, data) {
		t.Fatal("reassembly mismatch")
	}
	p, s := m.Seg.Stats()
	if p != 1 || s != 4 {
		t.Fatalf("seg stats = %d,%d", p, s)
	}
	p, s = m.Reasm.Stats()
	if p != 1 || s != 4 {
		t.Fatalf("reasm stats = %d,%d", p, s)
	}
}

func TestSchedulerGrantPriority(t *testing.T) {
	s, err := NewInternalScheduler(3, 4, []int{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Offer(0, Request{Cmd: CmdEnqueue, Queue: 0}, 0)
	s.Offer(1, Request{Cmd: CmdEnqueue, Queue: 1}, 0)
	s.Offer(2, Request{Cmd: CmdEnqueue, Queue: 2}, 0)
	req, port, _, ok := s.Grant()
	if !ok || port != 1 || req.Queue != 1 {
		t.Fatalf("grant = port %d queue %d", port, req.Queue)
	}
	// Equal priorities round-robin: next grant starts scanning after port 1.
	_, port2, _, _ := s.Grant()
	if port2 != 2 {
		t.Fatalf("second grant = port %d, want 2", port2)
	}
	_, port3, _, _ := s.Grant()
	if port3 != 0 {
		t.Fatalf("third grant = port %d, want 0", port3)
	}
	if _, _, _, ok := s.Grant(); ok {
		t.Fatal("grant on empty scheduler succeeded")
	}
}

func TestSchedulerBackpressure(t *testing.T) {
	s, _ := NewInternalScheduler(1, 2, nil)
	if !s.Offer(0, Request{}, 0) || !s.Offer(0, Request{}, 0) {
		t.Fatal("offers below depth rejected")
	}
	if s.Offer(0, Request{}, 0) {
		t.Fatal("offer above depth accepted — back-pressure missing")
	}
	if s.SpaceAvailable(0) != 0 {
		t.Fatalf("space = %d", s.SpaceAvailable(0))
	}
	s.Grant()
	if s.SpaceAvailable(0) != 1 {
		t.Fatalf("space after grant = %d", s.SpaceAvailable(0))
	}
	if s.PendingTotal() != 1 {
		t.Fatalf("pending = %d", s.PendingTotal())
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewInternalScheduler(0, 1, nil); err == nil {
		t.Fatal("zero ports accepted")
	}
	if _, err := NewInternalScheduler(2, 0, nil); err == nil {
		t.Fatal("zero depth accepted")
	}
	if _, err := NewInternalScheduler(2, 1, []int{1}); err == nil {
		t.Fatal("priority length mismatch accepted")
	}
}

func TestSchedulerFIFOTimestamps(t *testing.T) {
	s, _ := NewInternalScheduler(1, 4, nil)
	s.Offer(0, Request{Cmd: CmdEnqueue}, 100)
	s.Offer(0, Request{Cmd: CmdDequeue}, 200)
	_, _, arrived, _ := s.Grant()
	if arrived != 100 {
		t.Fatalf("arrived = %d", arrived)
	}
	_, _, arrived, _ = s.Grant()
	if arrived != 200 {
		t.Fatalf("arrived = %d", arrived)
	}
}

func TestPortClassString(t *testing.T) {
	if Ingress.String() != "in" || Egress.String() != "out" || CPUPort.String() != "cpu" {
		t.Fatal("PortClass.String broken")
	}
	if PortClass(9).String() == "" {
		t.Fatal("unknown class must render")
	}
}

func TestDMCBankMapping(t *testing.T) {
	d := NewDMC(8)
	if d.Banks() != 8 {
		t.Fatalf("banks = %d", d.Banks())
	}
	// Deterministic and in range.
	for s := int32(0); s < 1000; s++ {
		b := d.BankOf(s)
		if b < 0 || b >= 8 {
			t.Fatalf("bank %d out of range", b)
		}
		if b != d.BankOf(s) {
			t.Fatal("BankOf not deterministic")
		}
	}
	if d.BankOf(-1) != 0 {
		t.Fatal("negative segment must map to bank 0")
	}
	// Roughly uniform.
	counts := make([]int, 8)
	for s := int32(0); s < 8000; s++ {
		counts[d.BankOf(s)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bank %d has %d of 8000 segments", b, c)
		}
	}
	// Sequential segments must not be conflict-free: roughly iid banks mean
	// a ~23%% chance of matching one of the previous two.
	conflicts := 0
	for s := int32(2); s < 10000; s++ {
		b := d.BankOf(s)
		if b == d.BankOf(s-1) || b == d.BankOf(s-2) {
			conflicts++
		}
	}
	rate := float64(conflicts) / 10000
	if rate < 0.15 || rate > 0.32 {
		t.Fatalf("sequential same-bank rate = %.3f, want ~0.23", rate)
	}
}

func TestDMCAccessTiming(t *testing.T) {
	d := NewDMC(4)
	// Find two segments on the same bank.
	var s1, s2 int32 = 0, -1
	for s := int32(1); s < 100; s++ {
		if d.BankOf(s) == d.BankOf(s1) {
			s2 = s
			break
		}
	}
	if s2 < 0 {
		t.Fatal("no same-bank pair found")
	}
	w1, t1 := d.Access(s1, 1000)
	if w1 != 0 || t1 != DataPathFixedHC {
		t.Fatalf("first access wait=%d total=%d", w1, t1)
	}
	w2, t2 := d.Access(s2, 1010)
	if w2 != (1000+BankBusyHC)-1010 {
		t.Fatalf("conflict wait = %d", w2)
	}
	if t2 != w2+DataPathFixedHC {
		t.Fatalf("total = %d", t2)
	}
	// After the busy window, no conflict.
	w3, _ := d.Access(s1, 1000+10*BankBusyHC)
	if w3 != 0 {
		t.Fatalf("late access wait = %d", w3)
	}
	acc, conf := d.Stats()
	if acc != 3 || conf != 1 {
		t.Fatalf("stats = %d accesses %d conflicts", acc, conf)
	}
}

func TestDMCPanicsOnZeroBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDMC(0)
}

func BenchmarkDoEnqueueDequeue(b *testing.B) {
	m, _ := New(Config{NumQueues: 64, NumSegments: 1024})
	payload := make([]byte, queue.SegmentBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queue.QueueID(i % 64)
		if _, err := m.Do(Request{Cmd: CmdEnqueue, Queue: q, Payload: payload, EOP: true}); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Do(Request{Cmd: CmdDequeue, Queue: q}); err != nil {
			b.Fatal(err)
		}
	}
}
