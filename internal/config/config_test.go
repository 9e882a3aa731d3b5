package config

import "testing"

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultPoise().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesPaperTableIIIb(t *testing.T) {
	c := Default()
	if c.NumSMs != 32 || c.SchedulersPerSM != 2 || c.WarpsPerSched != 24 {
		t.Fatalf("core organisation wrong: %+v", c)
	}
	if c.MaxWarpsPerSM() != 48 || c.MaxThreadsPerSM != 1536 || c.WarpWidth != 32 {
		t.Fatal("warp capacity wrong")
	}
	if c.L1.SizeBytes != 16*1024 || c.L1.Ways != 4 || c.L1.LineBytes != 128 ||
		c.L1.MSHRs != 32 || c.L1.Index != IndexHash {
		t.Fatalf("L1 wrong: %+v", c.L1)
	}
	if c.L1.Sets() != 32 {
		t.Fatalf("L1 sets = %d, want 32", c.L1.Sets())
	}
	if sets := c.L2.SizeBytes / c.L2Banks / (c.L2.LineBytes * c.L2.Ways); c.L2Banks != 24 || sets != 96 || c.L2.Ways != 8 {
		t.Fatalf("L2 wrong: banks=%d sets per bank=%d", c.L2Banks, sets)
	}
	if c.DRAMPartitions != 6 {
		t.Fatal("DRAM partitions wrong")
	}
}

func TestPoiseDefaultsMatchTableIV(t *testing.T) {
	p := DefaultPoise()
	if p.TPeriod != 200_000 || p.TWarmup != 2_000 || p.TFeature != 10_000 || p.TSearch != 4_000 {
		t.Fatalf("timing wrong: %+v", p)
	}
	if p.IMax != 49 || p.StrideN != 2 || p.StrideP != 4 {
		t.Fatal("search parameters wrong")
	}
	if p.ScoreW0 != 1 || p.ScoreW1 != 0.5 || p.ScoreW2 != 0.25 {
		t.Fatal("scoring weights wrong")
	}
	if p.MinTrainCycles != 10_000 || p.MinTrainHitRate != 0 {
		t.Fatal("thresholds wrong")
	}
}

func TestScalePreservesRatios(t *testing.T) {
	c := Default()
	s := c.Scale(8)
	if s.NumSMs != 8 {
		t.Fatalf("NumSMs = %d", s.NumSMs)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-SM shares stay within rounding of the 32-SM baseline.
	baseL2 := float64(c.L2.SizeBytes) / float64(c.NumSMs)
	scaledL2 := float64(s.L2.SizeBytes) / float64(s.NumSMs)
	if scaledL2 < baseL2*0.7 || scaledL2 > baseL2*1.4 {
		t.Fatalf("L2 per SM drifted: %v -> %v", baseL2, scaledL2)
	}
	// Scaling up or to nonsense is a no-op.
	if c.Scale(0).NumSMs != 32 || c.Scale(64).NumSMs != 32 {
		t.Fatal("bad scale targets must be no-ops")
	}
	// Tiny scales keep at least one of each shared resource.
	tiny := c.Scale(1)
	if tiny.DRAMPartitions < 1 || tiny.L2Banks < 1 {
		t.Fatal("scale floor broken")
	}
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckScaleRefusesWhatScaleIgnores: CheckScale accepts exactly the
// SM counts Scale honours, 1 to the baseline's 32.
func TestCheckScaleRefusesWhatScaleIgnores(t *testing.T) {
	c := Default()
	for _, n := range []int{-3, 0, 1, 8, 32, 33, 64} {
		err := c.CheckScale(n)
		if ok := n >= 1 && n <= 32; (err == nil) != ok {
			t.Errorf("CheckScale(%d) = %v, want ok=%v", n, err, ok)
		}
		if err == nil && c.Scale(n).NumSMs != n {
			t.Errorf("CheckScale accepts %d but Scale(%d) has %d SMs", n, n, c.Scale(n).NumSMs)
		}
	}
}

func TestScaleTiming(t *testing.T) {
	p := DefaultPoise()
	s := p.ScaleTiming(20)
	if s.TPeriod != 10_000 || s.TWarmup != 100 || s.TFeature != 500 || s.TSearch != 200 {
		t.Fatalf("scaled timing wrong: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ScaleTiming(1).TPeriod != p.TPeriod {
		t.Fatal("factor 1 must be identity")
	}
	// Extreme factors floor at 1 cycle and stay valid ordering-wise.
	x := p.ScaleTiming(1_000_000)
	if x.TWarmup < 1 || x.TFeature < 1 {
		t.Fatal("scaled windows must stay positive")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no sms", func(c *Config) { c.NumSMs = 0 }},
		{"no scheds", func(c *Config) { c.SchedulersPerSM = 0 }},
		{"no warps", func(c *Config) { c.WarpsPerSched = 0 }},
		{"no width", func(c *Config) { c.WarpWidth = 0 }},
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }},
		{"dual issue is not modelled", func(c *Config) { c.IssueWidth = 2 }},
		{"thread cap", func(c *Config) { c.MaxThreadsPerSM = 10 }},
		{"bad l1", func(c *Config) { c.L1.SizeBytes = 100 }},
		{"no mshrs", func(c *Config) { c.L1.MSHRs = 0 }},
		{"l2 banks", func(c *Config) { c.L2Banks = 0 }},
		{"l2 split", func(c *Config) { c.L2.SizeBytes = 1000; c.L2Banks = 7 }},
		{"dram", func(c *Config) { c.DRAMPartitions = 0 }},
		{"zero alu latency", func(c *Config) { c.ALULatency = 0 }},
		{"negative alu latency", func(c *Config) { c.ALULatency = -4 }},
		{"zero l1 hit latency", func(c *Config) { c.L1HitLatency = 0 }},
		{"negative l1 hit latency", func(c *Config) { c.L1HitLatency = -1 }},
		{"zero flit bytes", func(c *Config) { c.NoCFlitBytes = 0 }},
		{"negative flit bytes", func(c *Config) { c.NoCFlitBytes = -32 }},
		{"zero cycles per flit", func(c *Config) { c.NoCCyclesPerFl = 0 }},
		{"negative cycles per flit", func(c *Config) { c.NoCCyclesPerFl = -2 }},
		{"negative noc latency", func(c *Config) { c.NoCLatency = -1 }},
		{"zero dram cycles per request", func(c *Config) { c.DRAMCyclesPerReq = 0 }},
		{"negative dram cycles per request", func(c *Config) { c.DRAMCyclesPerReq = -12 }},
	}
	for _, tc := range cases {
		c := Default()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

func TestPoiseValidateCatches(t *testing.T) {
	p := DefaultPoise()
	p.TWarmup = 150_000
	p.TFeature = 100_000
	if err := p.Validate(); err == nil {
		t.Fatal("window exceeding epoch must fail")
	}
	q := DefaultPoise()
	q.StrideN = -1
	if err := q.Validate(); err == nil {
		t.Fatal("negative stride must fail")
	}
}

func TestIndexFnString(t *testing.T) {
	if IndexHash.String() != "hash" || IndexLinear.String() != "linear" {
		t.Fatal("index names")
	}
	if IndexFn(9).String() == "" {
		t.Fatal("unknown index must still print")
	}
}
