//go:build !race

package main

// raceEnabled lets the test that sweeps the whole training set stay out
// of race builds (the detector slows the cycle engine ~10x).
const raceEnabled = false
