package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// KernelDigest fingerprints a kernel's content: structure, body,
// per-warp iteration counts and pattern addresses sampled across warps
// and iterations. Sampling keeps the digest cheap while still moving
// whenever the kernel is regenerated differently (a different seed or
// source perturbs essentially every address of the stochastic
// streams). Plan workers compare it against a task's recorded digest
// before simulating, and the simulator's run memo chains it into
// its keys, so a stale catalogue cannot silently corrupt a sweep
// or alias a cache entry.
func KernelDigest(k *Kernel) string {
	d := sha256.New()
	fmt.Fprintf(d, "%s;%d;%d;%d;%d;%d;%d;%v", k.Name, k.Iters,
		k.WarpsPerBlock, k.Blocks, k.MaxWarpsPerSched, k.MaxBlocksPerSM,
		k.Seed, k.IterJitter)
	for _, ins := range k.Body {
		fmt.Fprintf(d, ",%d.%d.%d.%v", ins.Kind, ins.Slot, ins.UseDist, ins.DepALU)
	}
	for _, it := range k.PerWarpIters {
		fmt.Fprintf(d, ":%d", it)
	}
	total := k.TotalWarps()
	for _, g := range []int{0, total / 3, total / 2, total - 1} {
		if g < 0 || g >= total {
			continue
		}
		ctx := Ctx{GlobalWarp: g, Block: g / k.WarpsPerBlock, WarpInBlk: g % k.WarpsPerBlock}
		iters := k.WarpIters(g)
		for slot, p := range k.Patterns {
			if p == nil {
				continue
			}
			for probe := 0; probe < 16; probe++ {
				seq := probe * iters / 16
				if seq >= iters {
					break
				}
				fmt.Fprintf(d, "@%d.%d.%d=%x", g, slot, seq, p.Addr(ctx, seq))
			}
		}
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}
