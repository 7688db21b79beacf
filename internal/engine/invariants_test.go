package engine

import (
	"strings"
	"testing"

	"npqm/internal/queue"
)

// TestCheckInvariantsCatchesCrossLinks: a segment carries no lifecycle
// state, so CheckInvariants works out where each one is — every shard's
// queue walk and the store's free walk mark one array — and must still
// report a segment that is in two places, in none, or lent without being on
// the lent books. Each case corrupts a quiescent engine by hand inside the
// shard's critical section, as a buggy datapath would.
func TestCheckInvariantsCatchesCrossLinks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(e *Engine, a, b uint32)
		want    string
	}{
		{"queued segment also freed", func(e *Engine, _, b uint32) {
			s := e.shardOf(b)
			h := headSeg(t, s, b)
			e.run(s, func() { s.cache.FreeN(h, h, 1) })
		}, "appears twice in cache magazine"},
		{"segment taken and dropped", func(e *Engine, a, _ uint32) {
			s := e.shardOf(a)
			e.run(s, func() { s.cache.AllocN(make([]int32, 1)) })
		}, "1 segments neither free nor queued, 0 lent"},
		{"lent books without a lend", func(e *Engine, a, _ uint32) {
			s := e.shardOf(a)
			e.run(s, func() { s.cache.Lend(1) })
		}, "0 segments neither free nor queued, 1 lent"},
		{"queue tail linked into another shard", func(e *Engine, a, b uint32) {
			sb := e.shardOf(b)
			hb := headSeg(t, sb, b)
			e.run(sb, func() { e.store.View().Next[hb] = headSeg(t, e.shardOf(a), a) })
		}, "linked twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(Config{Shards: 2, NumFlows: 16, NumSegments: 256})
			if err != nil {
				t.Fatal(err)
			}
			// a on shard 0, whose queues are walked first; b on shard 1.
			a, b := flowOnShard(t, e, 0), flowOnShard(t, e, 1)
			if _, err := e.EnqueuePacket(a, make([]byte, 3*queue.SegmentBytes)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.EnqueuePacket(b, make([]byte, queue.SegmentBytes)); err != nil {
				t.Fatal(err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(e, a, b)
			err = e.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// flowOnShard returns the lowest flow shard i owns.
func flowOnShard(t *testing.T, e *Engine, i int) uint32 {
	t.Helper()
	for f := uint32(0); f < uint32(e.cfg.NumFlows); f++ {
		if e.shardIndex(f) == i {
			return f
		}
	}
	t.Fatalf("shard %d owns no flow", i)
	return 0
}

// headSeg returns the head segment of flow's queue on s.
func headSeg(t *testing.T, s *shard, flow uint32) int32 {
	t.Helper()
	info, _, err := s.m.ReadHead(s.row(flow))
	if err != nil {
		t.Fatal(err)
	}
	return int32(info.Seg)
}
