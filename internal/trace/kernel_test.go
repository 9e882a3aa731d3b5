package trace

import (
	"testing"
	"testing/quick"
)

func validKernel() *Kernel {
	b := &BodyBuilder{}
	b.Load(1)
	b.ALU(3)
	return &Kernel{
		Name:          "k",
		Body:          b.Body(),
		Patterns:      []Pattern{PrivateSweep{Region: 40, Lines: 8, Step: 1}},
		Iters:         10,
		WarpsPerBlock: 4,
		Blocks:        2,
	}
}

func TestKernelValidateAccepts(t *testing.T) {
	if err := validKernel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Kernel)
	}{
		{"empty name", func(k *Kernel) { k.Name = "" }},
		{"empty body", func(k *Kernel) { k.Body = nil }},
		{"zero iters", func(k *Kernel) { k.Iters = 0 }},
		{"negative iters", func(k *Kernel) { k.Iters = -4 }},
		{"zero warps", func(k *Kernel) { k.WarpsPerBlock = 0 }},
		{"zero blocks", func(k *Kernel) { k.Blocks = 0 }},
		{"negative jitter", func(k *Kernel) { k.IterJitter = -0.1 }},
		{"jitter >= 1", func(k *Kernel) { k.IterJitter = 1 }},
		{"nil pattern", func(k *Kernel) { k.Patterns = []Pattern{nil} }},
		{"load slot out of range", func(k *Kernel) { k.Body = []Instr{{Kind: OpLoad, Slot: 5}} }},
		{"load slot negative", func(k *Kernel) { k.Body = []Instr{{Kind: OpLoad, Slot: -1}} }},
		{"store slot out of range", func(k *Kernel) { k.Body = []Instr{{Kind: OpStore, Slot: 5}} }},
		{"store slot negative", func(k *Kernel) { k.Body = []Instr{{Kind: OpStore, Slot: -2}} }},
		{"negative usedist", func(k *Kernel) { k.Body = []Instr{{Kind: OpLoad, Slot: 0, UseDist: -1}} }},
		{"unknown op", func(k *Kernel) { k.Body = []Instr{{Kind: OpKind(9)}} }},
		{"per-warp iters wrong length", func(k *Kernel) { k.PerWarpIters = []int{3, 3} }},
		{"per-warp iters zero entry", func(k *Kernel) {
			k.PerWarpIters = make([]int, k.TotalWarps())
			for i := range k.PerWarpIters {
				k.PerWarpIters[i] = 2
			}
			k.PerWarpIters[3] = 0
		}},
	}
	for _, c := range cases {
		k := validKernel()
		c.mutate(k)
		if err := k.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", c.name)
		}
	}
}

func TestPerWarpItersOverride(t *testing.T) {
	k := validKernel()
	k.IterJitter = 0.5 // must be ignored when PerWarpIters is set
	k.PerWarpIters = make([]int, k.TotalWarps())
	for i := range k.PerWarpIters {
		k.PerWarpIters[i] = i + 1
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range k.PerWarpIters {
		if got := k.WarpIters(i); got != i+1 {
			t.Fatalf("WarpIters(%d) = %d, want %d", i, got, i+1)
		}
	}
}

func TestWarpItersJitterBounds(t *testing.T) {
	k := validKernel()
	k.Iters = 100
	k.IterJitter = 0.3
	for w := 0; w < 200; w++ {
		it := k.WarpIters(w)
		if it < 70 || it > 130 {
			t.Fatalf("warp %d iters %d outside [70,130]", w, it)
		}
	}
	// Deterministic per warp.
	if k.WarpIters(7) != k.WarpIters(7) {
		t.Fatal("WarpIters must be deterministic")
	}
	// No jitter => exact.
	k.IterJitter = 0
	if k.WarpIters(3) != 100 {
		t.Fatal("no jitter must return Iters exactly")
	}
}

func TestWarpItersNeverZero(t *testing.T) {
	k := validKernel()
	k.Iters = 1
	k.IterJitter = 0.9
	f := func(w uint16) bool { return k.WarpIters(int(w)) >= 1 }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBodyBuilder(t *testing.T) {
	b := &BodyBuilder{}
	s0 := b.Load(2)
	b.ALU(3)
	s1 := b.Store()
	b.DepALU(1)
	body := b.Body()
	if len(body) != 6 {
		t.Fatalf("body len = %d, want 6", len(body))
	}
	if s0 != 0 || s1 != 1 || b.Slots() != 2 {
		t.Fatalf("slots wrong: s0=%d s1=%d total=%d", s0, s1, b.Slots())
	}
	if body[0].Kind != OpLoad || body[0].UseDist != 2 {
		t.Fatalf("load wrong: %+v", body[0])
	}
	if body[4].Kind != OpStore {
		t.Fatalf("store wrong: %+v", body[4])
	}
	if !body[5].DepALU {
		t.Fatal("DepALU flag missing")
	}
}

func TestCountsAndIn(t *testing.T) {
	b := &BodyBuilder{}
	b.Load(1)
	b.ALU(4)
	b.Load(1)
	b.ALU(4)
	b.Store()
	k := validKernel()
	k.Body = b.Body()
	k.Patterns = []Pattern{
		PrivateSweep{Region: 41, Lines: 4, Step: 1},
		PrivateSweep{Region: 42, Lines: 4, Step: 1},
		Stream{Region: 43},
	}
	if last := k.Body[len(k.Body)-1].Kind; k.LoadsPerIter() != 2 || last != OpStore {
		t.Fatalf("loads=%d, last op %v, want 2 and a store", k.LoadsPerIter(), last)
	}
	if got := k.In(); got != 11.0/2 {
		t.Fatalf("In = %v, want 5.5", got)
	}
	k.Body = []Instr{{Kind: OpALU}}
	k.Patterns = nil
	if k.In() < 100 {
		t.Fatal("loadless kernel must have huge In")
	}
}

func TestTotalWarps(t *testing.T) {
	k := validKernel()
	if k.TotalWarps() != 8 {
		t.Fatalf("TotalWarps = %d, want 8", k.TotalWarps())
	}
}
