package main

import (
	"errors"
	"fmt"

	"poise/internal/config"
)

// serveFlags is the parsed command line, kept as a plain struct so
// validation is a pure function the tests can drive without touching
// the flag package or the network.
type serveFlags struct {
	listen     string
	weights    string
	profiles   string
	samples    string
	weightsOut string
	minRetrain int
	sms        int
	stepN      int
	stepP      int
	cache      string
	maxBody    int64
	pprofAddr  string
}

// validateServeFlags rejects configurations that could not serve: it
// runs before any file is opened or port bound, so a typo fails fast
// with one clear message instead of a half-started service.
func validateServeFlags(f serveFlags) error {
	if f.listen == "" {
		return errors.New("poiseserve: -listen must not be empty")
	}
	if f.minRetrain < 0 {
		return fmt.Errorf("poiseserve: -min-retrain %d is negative (0 means the default threshold)", f.minRetrain)
	}
	if err := config.Default().CheckScale(f.sms); err != nil {
		return fmt.Errorf("poiseserve: -sms: %w", err)
	}
	if f.stepN < 1 || f.stepP < 1 {
		return fmt.Errorf("poiseserve: sweep strides must be >= 1 (got -stepn %d -stepp %d)", f.stepN, f.stepP)
	}
	if f.maxBody < 0 {
		return fmt.Errorf("poiseserve: -max-body %d is negative (0 means the default bound)", f.maxBody)
	}
	if f.weightsOut != "" && f.weightsOut == f.weights {
		return errors.New("poiseserve: -weights-out must differ from -weights (retrains would clobber the boot model)")
	}
	if f.pprofAddr != "" && f.pprofAddr == f.listen {
		return errors.New("poiseserve: -pprof must differ from -listen (the debug endpoints must never share the service port)")
	}
	return nil
}
