// Training: run the full offline learning pipeline — profile the
// training workloads across the {N, p} space, score targets with the
// Eq. 12 neighbourhood scoring, scale them to the uniform 24-warp
// space, and fit the two Negative Binomial link functions — then show
// the learned weights (this repository's Table II analogue) and test a
// prediction on an unseen workload.
//
//	go run ./examples/training
//
// Expect a couple of minutes on first run; profiles are cached under
// .poise-cache afterwards.
package main

import (
	"fmt"
	"log"

	"poise"
)

func main() {
	cfg := poise.DefaultConfig().Scale(8)

	fmt.Println("training on gco/pvr/ccl (the evaluation set stays unseen)...")
	w, err := poise.Train(cfg, poise.Small, poise.TrainOptions{
		StepN:    3,
		StepP:    3,
		CacheDir: ".poise-cache",
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nlearned link functions over %d kernels (ln N = a.x, ln p = b.x):\n\n", w.TrainKernels)
	names := []string{"ho", "h'", "eta_o", "eta'", "(d-eta)^2", "In(d-eta)^2", "AML term", "1"}
	fmt.Printf("  %-12s %12s %12s\n", "feature", "alpha (N)", "beta (p)")
	for i, n := range names {
		fmt.Printf("  %-12s %+12.6f %+12.6f\n", n, w.Alpha[i], w.Beta[i])
	}
	fmt.Printf("\npseudo-R2: N %.3f, p %.3f\n", w.PseudoR2N, w.PseudoR2P)

	// Use the model on an unseen workload: run Poise end to end.
	spec := poise.PolicySpec{Name: "poise", Weights: &w}
	pol, err := poise.NewPolicy(spec)
	if err != nil {
		log.Fatal(err)
	}
	target := poise.Workloads(poise.Small).Must("mm")
	gto, _ := poise.NewPolicy(poise.PolicySpec{Name: "gto"})
	base, err := poise.Run(cfg, target, gto)
	if err != nil {
		log.Fatal(err)
	}
	res, err := poise.Run(cfg, target, pol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunseen workload %s: GTO IPC %.3f -> Poise IPC %.3f (%.2fx)\n",
		target.Name, base.IPC, res.IPC, res.IPC/base.IPC)
}
