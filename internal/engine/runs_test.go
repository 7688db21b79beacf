package engine

import "testing"

// TestChainsStayWhole pins the property the whole-chain free store
// (segstore.Cache's bins and the depot's grain stacks) exists for, on one
// goroutine and with no timing: a packet freed in one run is allocated in
// one run, so EnqueuedRuns / EnqueuedPackets stays flat over the engine's
// lifetime instead of rising as runs split. The churn is the benchmark's
// shape in miniature — four shards, a pool kept three-quarters full, windows
// of arrivals on random flows and batches of 64 served — and each bound
// fails before the bins existed (1500 B views read 2.2 there and rose with
// lifetime; IMIX copies 5.3).
func TestChainsStayWhole(t *testing.T) {
	imix := func(r uint64) int { return [12]int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500}[r%12] }
	cases := []struct {
		name    string
		view    bool
		size    func(r uint64) int
		packets []int // cumulative counts the bound is read at
		bound   float64
	}{
		{"mtu1500-view", true, func(uint64) int { return 1500 }, []int{50_000, 500_000}, 1.2},
		{"imix-copy", false, imix, []int{50_000, 500_000}, 2.5},
		{"min64-copy", false, func(uint64) int { return 64 }, []int{50_000}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			packets := tc.packets
			if testing.Short() || raceEnabled {
				packets = packets[:1]
			}
			const pool, flows = 16384, 4096
			e, err := New(Config{Shards: 4, NumFlows: flows, NumSegments: pool})
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 1500)
			rng := uint64(1)
			offered, served := 0, 0
			for _, at := range packets {
				for offered < at {
					for range 32 {
						rng = rng*6364136223846793005 + 1442695040888963407
						flow, size := uint32(rng>>40)%flows, tc.size(rng>>20)
						if tc.view {
							r, err := e.ReservePacket(flow, size)
							if err != nil {
								t.Fatal(err)
							}
							if err := r.Commit(); err != nil {
								t.Fatal(err)
							}
						} else if _, err := e.EnqueuePacket(flow, payload[:size]); err != nil {
							t.Fatal(err)
						}
						offered++
					}
					for pool-e.FreeSegments() > pool*3/4 {
						if tc.view {
							batch := e.DequeueNextViewBatch(64)
							served += len(batch)
							e.ReleaseViews(batch)
						} else {
							served += len(e.DequeueNextBatch(64))
						}
					}
				}
				st := e.Stats()
				got := float64(st.EnqueuedRuns) / float64(st.EnqueuedPackets)
				t.Logf("%d packets (%d served): %.3f runs per packet", st.EnqueuedPackets, served, got)
				if got > tc.bound {
					t.Errorf("%d packets: %.3f runs per packet, want <= %v", st.EnqueuedPackets, got, tc.bound)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
