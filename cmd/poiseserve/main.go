// Command poiseserve runs the Poise decision service: trained weights
// behind an HTTP+JSONL API that answers "feature vector → (N, p)" at
// memoised-lookup speed, serves the static policy table, and closes
// the online-adaptation loop by ingesting traces and retraining on
// them, with atomic hot-swap of the active model.
//
// Endpoints:
//
//	POST /decide  one JSON request per line in, a count header plus one
//	              reply per line out
//	GET  /table   the static policy table (byte-identical to
//	              `poisesim -best` over the same -profiles directory)
//	POST /ingest  a raw poisetrace container (optionally gzipped) or a
//	              pre-characterised JSON record; appends to the sample
//	              log and, past -min-retrain samples, retrains before
//	              replying
//	GET  /stats   service counters (decisions, cache hits, retrains,
//	              latency quantiles)
//
// The sample log (-samples) is the durable adaptation state: restart
// the service over the same log and it reconverges to the same model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/serve"
)

func main() {
	var f serveFlags
	flag.StringVar(&f.listen, "listen", "127.0.0.1:9666", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&f.weights, "weights", "", "weights JSON to boot from ('' = the embedded default weights)")
	flag.StringVar(&f.profiles, "profiles", "", "profile directory backing GET /table ('' disables the endpoint)")
	flag.StringVar(&f.samples, "samples", "", "durable sample log path ('' = memory-only)")
	flag.StringVar(&f.weightsOut, "weights-out", "", "rewrite this weights JSON after every successful retrain")
	flag.IntVar(&f.minRetrain, "min-retrain", 0, "samples required before the first retrain (0 = default)")
	flag.IntVar(&f.sms, "sms", 8, "number of SMs for ingest profiling (scaled memory system)")
	flag.IntVar(&f.stepN, "stepn", 3, "ingest profile sweep stride in N")
	flag.IntVar(&f.stepP, "stepp", 3, "ingest profile sweep stride in p")
	flag.StringVar(&f.cache, "cache", "", "profile cache directory for ingest sweeps ('' disables)")
	flag.Int64Var(&f.maxBody, "max-body", 0, "request body bound in bytes, as sent and as decompressed (0 = default)")
	flag.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof debug endpoints on this separate address ('' = off; never exposed on -listen)")
	flag.Parse()

	if err := validateServeFlags(f); err != nil {
		fatal(err)
	}

	if f.pprofAddr != "" {
		_, stopPprof, err := startPprofServer(f.pprofAddr, logf)
		if err != nil {
			fatal(err)
		}
		defer stopPprof()
	}

	w, src, err := loadServeWeights(f.weights)
	if err != nil {
		fatal(err)
	}

	s, err := serve.New(serve.Config{
		Weights:    w,
		ProfileDir: f.profiles,
		SimCfg:     config.Default().Scale(f.sms),
		Sweep:      profile.SweepOptions{StepN: f.stepN, StepP: f.stepP},
		SweepCache: f.cache,
		SampleLog:  f.samples,
		Retrain:    serve.RetrainOptions{Min: f.minRetrain, WeightsOut: f.weightsOut},
		MaxBody:    f.maxBody,
		Logf:       logf,
	})
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM turn into a graceful shutdown: in-flight requests
	// drain, then the sample log closes. Each ingest retrained before
	// its reply, so -weights-out is already final.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	addrCh := make(chan string, 1)
	go func() { logf("poiseserve: serving %s on %s", src, <-addrCh) }()
	if err := s.Serve(ctx, f.listen, addrCh); err != nil {
		fatal(err)
	}
	logf("poiseserve: clean shutdown")
}

// loadServeWeights resolves the boot model: an explicit file, or the
// embedded default weights from the last `poisetrain -emit`.
func loadServeWeights(path string) (poise.Weights, string, error) {
	if path != "" {
		w, err := poise.LoadWeights(path)
		return w, path, err
	}
	w, ok := poise.DefaultWeights()
	if !ok {
		return poise.Weights{}, "", fmt.Errorf("poiseserve: no embedded default weights in this build; pass -weights")
	}
	return w, "embedded default weights", nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "poiseserve:", err)
	os.Exit(1)
}
