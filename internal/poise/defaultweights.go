package poise

// defaultWeights holds the shipped model: the output of running
// cmd/poisetrain on the synthetic training set (gco, pvr, ccl) at the
// canonical experiment configuration (8 SMs, Small size). It plays the
// role of the paper's Table II — in the deployment story, the values a
// GPU vendor trains once and ships through the compiler. Regenerate
// with:
//
//	go run ./cmd/poisetrain -emit internal/poise/defaultweights.go
//
// DO NOT EDIT below: generated by cmd/poisetrain.
var defaultWeights = Weights{
	Alpha:        [8]float64{0.012356074003265808, 0.09733252600752078, 3.315785751192519, -3.9578695462237703, 3.4210372803642226, 0.20225129879199089, -0.0007563899644982391, 3.0022603760712148},
	Beta:         [8]float64{2.224030488442085, 0.3526777908283567, 9.091329477412856, -9.373808549539353, 9.127050937080917, 0.23810771437305195, 0.008294584905967345, 1.659650187894673},
	DispersionN:  1e-06,
	DispersionP:  1e-06,
	TrainKernels: 60,
	PseudoR2N:    0.7672928010754411,
	PseudoR2P:    0.8408029600496456,
	Dropped:      -1,
}

// DefaultWeights returns the embedded trained model and whether it is
// a valid one.
func DefaultWeights() (Weights, bool) {
	if err := defaultWeights.Validate(); err != nil {
		return Weights{}, false
	}
	return defaultWeights, true
}
