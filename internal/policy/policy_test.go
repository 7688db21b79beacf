package policy

import "testing"

func TestParseKinds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{
		{"none", KindNone}, {"", KindNone},
		{"tail", KindTailDrop}, {"taildrop", KindTailDrop},
		{"lqd", KindLQD}, {"red", KindRED},
	} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if back, err := ParseKind(got.String()); err != nil || back != got {
			t.Errorf("round trip failed for %v", got)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) should fail")
	}
	for _, tc := range []struct {
		in   string
		want EgressKind
	}{
		{"rr", EgressRR}, {"", EgressRR}, {"prio", EgressPrio},
		{"priority", EgressPrio}, {"wrr", EgressWRR}, {"drr", EgressDRR},
	} {
		got, err := ParseEgressKind(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEgressKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseEgressKind("bogus"); err == nil {
		t.Error("ParseEgressKind(bogus) should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Kind: KindTailDrop, Limit: -1},
		{Kind: KindRED, MinTh: 0.9, MaxTh: 0.5},
		{Kind: KindRED, MinTh: 0.5, MaxTh: 1.5},
		{Kind: KindRED, MaxP: 2},
		{Kind: KindRED, Weight: -0.5},
		{Kind: 200},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted %+v", i, cfg)
		}
	}
	good := []Config{
		{}, {Kind: KindTailDrop, Limit: 16}, {Kind: KindLQD},
		{Kind: KindRED}, {Kind: KindRED, MinTh: 0.1, MaxTh: 0.9, MaxP: 0.5, Weight: 0.01},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: Validate() rejected %+v: %v", i, cfg, err)
		}
		if _, err := New(cfg); err != nil {
			t.Errorf("case %d: New failed: %v", i, err)
		}
	}
	if adm, err := New(Config{}); err != nil || adm != nil {
		t.Errorf("New(KindNone) = %v, %v; want nil, nil", adm, err)
	}
	if err := (EgressConfig{Kind: 50}).Validate(); err == nil {
		t.Error("EgressConfig with bogus kind should fail validation")
	}
}

// Tail-drop keeps no state: its rule runs in the engine
// (shard.overTailLimit and the pool check beside it, tested there), so
// there is no instance to build.
func TestTailDrop(t *testing.T) {
	for _, cfg := range []Config{{Kind: KindTailDrop, Limit: 8}, {Kind: KindTailDrop}, {}} {
		if adm, err := New(cfg); adm != nil || err != nil {
			t.Errorf("New(%+v) = %v, %v; want no instance", cfg, adm, err)
		}
	}
}

func TestLQD(t *testing.T) {
	adm, err := New(Config{Kind: KindLQD})
	if err != nil {
		t.Fatal(err)
	}
	if v := adm.Admit(1, 4, QueueState{}, PoolState{Free: 10, Capacity: 64}); v != Accept {
		t.Errorf("room available: got %v, want accept", v)
	}
	if v := adm.Admit(1, 4, QueueState{}, PoolState{Free: 2, Capacity: 64}); v != PushOut {
		t.Errorf("pool full: got %v, want push-out", v)
	}
	if v := adm.Admit(1, 100, QueueState{}, PoolState{Free: 2, Capacity: 64}); v != Drop {
		t.Errorf("larger than the pool: got %v, want drop", v)
	}
}

func TestREDRegimes(t *testing.T) {
	newRED := func() Admission {
		adm, err := New(Config{Kind: KindRED, MinTh: 0.2, MaxTh: 0.6, MaxP: 0.5, Weight: 0.2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return adm
	}

	// Idle pool: the average stays below MinTh, every arrival accepted.
	adm := newRED()
	for i := 0; i < 1000; i++ {
		if v := adm.Admit(1, 1, QueueState{}, PoolState{Free: 128, Capacity: 128}); v != Accept {
			t.Fatalf("idle pool arrival %d: got %v, want accept", i, v)
		}
	}

	// Saturated pool: the average converges above MaxTh, everything drops.
	adm = newRED()
	drops := 0
	for i := 0; i < 1000; i++ {
		if v := adm.Admit(1, 1, QueueState{}, PoolState{Free: 13, Capacity: 128}); v == Drop {
			drops++
		}
	}
	if drops < 900 {
		t.Errorf("saturated pool: only %d/1000 dropped", drops)
	}

	// Mid-band occupancy: some but not all arrivals drop.
	adm = newRED()
	drops = 0
	for i := 0; i < 5000; i++ {
		if v := adm.Admit(1, 1, QueueState{}, PoolState{Free: 77, Capacity: 128}); v == Drop {
			drops++
		}
	}
	if drops == 0 || drops == 5000 {
		t.Errorf("mid-band occupancy: %d/5000 dropped, want partial dropping", drops)
	}

	// Physically exhausted pool drops regardless of the average.
	adm = newRED()
	if v := adm.Admit(1, 4, QueueState{}, PoolState{Free: 1, Capacity: 128}); v != Drop {
		t.Errorf("exhausted pool: got %v, want drop", v)
	}
}

func TestREDDeterminism(t *testing.T) {
	run := func() []Verdict {
		adm, err := New(Config{Kind: KindRED, Seed: 7, MinTh: 0.1, MaxTh: 0.9, MaxP: 0.3, Weight: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Verdict, 0, 2000)
		for i := 0; i < 2000; i++ {
			out = append(out, adm.Admit(uint32(i), 1, QueueState{}, PoolState{Free: 40, Capacity: 128}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RED verdicts diverge at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVerdictAndKindStrings(t *testing.T) {
	if Accept.String() != "accept" || Drop.String() != "drop" || PushOut.String() != "push-out" {
		t.Error("verdict strings wrong")
	}
	for _, k := range []Kind{KindNone, KindTailDrop, KindLQD, KindRED} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestShaperConfigValidation(t *testing.T) {
	good := []ShaperConfig{
		{}, // unshaped
		{RateBytesPerSec: 125_000_000},
		{RateBytesPerSec: 1 << 20, BurstBytes: 1024},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid shaper config %d rejected: %v", i, err)
		}
	}
	bad := []ShaperConfig{
		{RateBytesPerSec: -1},
		{RateBytesPerSec: MaxShaperRate + 1},
		{BurstBytes: -1, RateBytesPerSec: 100},
		{BurstBytes: 100}, // burst without rate
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid shaper config %d accepted: %+v", i, cfg)
		}
	}
	// Defaults: burst fills to 10ms of rate, floored at 64KiB.
	if got := (ShaperConfig{RateBytesPerSec: 125_000_000}).WithDefaults().BurstBytes; got != 1_250_000 {
		t.Errorf("default burst at 125MB/s = %d, want 1250000", got)
	}
	if got := (ShaperConfig{RateBytesPerSec: 1000}).WithDefaults().BurstBytes; got != 64*1024 {
		t.Errorf("default burst at 1KB/s = %d, want 65536 floor", got)
	}
	if (ShaperConfig{}).Enabled() {
		t.Error("zero shaper config reports enabled")
	}
	if !(ShaperConfig{RateBytesPerSec: 1}).Enabled() {
		t.Error("shaped config reports disabled")
	}
}

// TestLevelWeightsFitInt32: a LevelSpec weight past MaxWeight is refused,
// not truncated to 0 — the default weight — where it is kept in 32 bits.
func TestLevelWeightsFitInt32(t *testing.T) {
	big := int64(MaxWeight) + 1 // a variable: int may be 32 bits
	eg := EgressConfig{Levels: []LevelSpec{{Tier: TierClass, Weights: []int{1, int(big)}}}}
	if err := eg.Validate(); err == nil {
		t.Errorf("LevelSpec weight %d accepted", int(big))
	}
}
