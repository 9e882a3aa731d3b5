package experiments

// Paper is what the paper reports for the quantities poisebench prints
// beside its own: the one place those literals live.
var Paper = struct {
	PoiseHMean               float64 // Fig. 7: H-mean Poise vs GTO on the evaluation workloads
	OfflineErrN, OfflineErrP float64 // Table II: offline prediction error on unseen kernels, percent
	EnergyRatio              float64 // Fig. 14: mean Poise/GTO energy
	ComputeHMean             float64 // Fig. 16: H-mean Poise vs GTO on compute-intensive workloads
	CostPerSM, CostChip      float64 // §VII-G: hardware cost in bytes, per SM and on the chip of
	CostChipSMs              int     // this many SMs
}{1.466, 16, 26, 0.484, 0.984, 40.75, 1304, 32}
