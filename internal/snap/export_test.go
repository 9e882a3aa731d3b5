package snap

// Helpers of the in-package tests that the external ones (the fuzz
// target imports internal/sim, which imports this package) share.
var (
	SampleSnapshot = sampleSnapshot
	Recrc          = recrc
)
