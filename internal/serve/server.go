package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/traceio"
	"poise/internal/wire"
)

// Config assembles a decision service.
type Config struct {
	// Weights is the boot model (version 1).
	Weights poise.Weights

	// ProfileDir backs GET /table: the profile store the static policy
	// table is derived from. Empty disables the endpoint.
	ProfileDir string
	// Params scores the table derivation and admits ingested kernels;
	// the zero value means config.DefaultPoise().
	Params config.PoiseParams

	// SimCfg and Sweep drive sample derivation for raw-trace ingests
	// (each kernel is profiled across the {N, p} grid exactly as the
	// offline trainer would). A zero SimCfg means config.Default().
	SimCfg config.Config
	Sweep  profile.SweepOptions
	// SweepCache is a profile.Store directory for ingest sweeps
	// (empty = no cache, every ingest re-sweeps).
	SweepCache string

	// SampleLog is the durable sample log path (empty = memory-only).
	SampleLog string
	// Retrain tunes the online-adaptation loop.
	Retrain RetrainOptions

	// MaxBody bounds request bodies (decide batches, ingested traces),
	// an ingest body also after decompression; <= 0 means
	// DefaultMaxBody.
	MaxBody int64
	// Logf receives service log lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultMaxBody bounds request bodies: large enough for a
// multi-kernel trace, small enough that a hostile upload cannot OOM the
// service. The limit applies after decompression too: a gzipped ingest
// body may inflate to DefaultMaxBody bytes and no further.
const DefaultMaxBody = 64 << 20

// DecideRequest is one line of a POST /decide body.
type DecideRequest struct {
	// Key memoises the decision table for this workload — by
	// convention a kernel digest or trace-signature digest. Empty
	// skips memoisation.
	Key string `json:"key,omitempty"`
	// X is the Table II feature vector.
	X poise.Vector `json:"x"`
	// MaxN is the scheduler's warp bound; 0 means the service's
	// configured hardware bound.
	MaxN int `json:"maxN,omitempty"`
}

// DecideReply is one line of a /decide response, after its header.
type DecideReply struct {
	N       int   `json:"n"`
	P       int   `json:"p"`
	Version int64 `json:"version"`
	Cached  bool  `json:"cached"`
}

// decideHeader is the first line of a /decide response, fleet-style:
// the count tells the reader how many lines follow.
type decideHeader struct {
	Serve   string `json:"serve"`
	Count   int    `json:"count"`
	Version int64  `json:"version"`
}

// IngestReply answers POST /ingest.
type IngestReply struct {
	// Workload names the ingested trace (from its signature).
	Workload string `json:"workload"`
	// Samples derived from this record; Records and TotalSamples are
	// the log totals after the append.
	Samples      int   `json:"samples"`
	Records      int64 `json:"records"`
	TotalSamples int64 `json:"totalSamples"`
	// WeightsVersion is the active version at reply time — the retrain
	// triggered by this ingest may still be in flight.
	WeightsVersion int64 `json:"weightsVersion"`
}

// Server is the HTTP face of a Decider plus its Retrainer.
type Server struct {
	cfg         Config
	dec         *Decider
	ret         *Retrainer
	hist        histogram
	defaultMaxN int

	// ingested registers the kernels that arrived via /ingest (or were
	// replayed from the sample log), keyed by workload and kernel name,
	// so /table can serve the active model's decision for each.
	ingMu    sync.Mutex
	ingested map[string]ingestedKernel
}

// ingestedKernel is one /ingest-arrived kernel: its name, its latest
// feature vector, and the warp bound it trains at.
type ingestedKernel struct {
	name string
	x    poise.Vector
	maxN int
}

// New validates the boot weights and assembles the service, replaying
// any existing sample log before the first request is served.
func New(cfg Config) (*Server, error) {
	if cfg.SimCfg == (config.Config{}) {
		cfg.SimCfg = config.Default()
	}
	if cfg.Params == (config.PoiseParams{}) {
		cfg.Params = config.DefaultPoise()
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Retrain.Logf == nil {
		cfg.Retrain.Logf = cfg.Logf
	}
	dec, err := NewDecider(cfg.Weights)
	if err != nil {
		return nil, err
	}
	ret, err := NewRetrainer(dec, cfg.SampleLog, cfg.Retrain)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, dec: dec, ret: ret,
		defaultMaxN: cfg.SimCfg.WarpsPerSched,
		ingested:    make(map[string]ingestedKernel),
	}
	for _, rec := range ret.DrainReplayed() {
		s.registerIngested(rec)
	}
	return s, nil
}

// Flush blocks until every ingest accepted before the call has been
// folded into the model. Test and shutdown hook.
func (s *Server) Flush() { s.ret.Flush() }

// Close drains the retrainer (final retrain, final weights write) and
// closes the sample log.
func (s *Server) Close() error { return s.ret.Close() }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	decisions, hits, misses := s.dec.Counters()
	records, samples := s.ret.Totals()
	return Stats{
		Decisions:       decisions,
		CacheHits:       hits,
		CacheMisses:     misses,
		Tables:          s.dec.Tables(),
		IngestedRecords: records,
		TotalSamples:    samples,
		Retrains:        s.ret.Retrains(),
		RetrainErrors:   s.ret.Errors(),
		WeightsVersion:  s.dec.Version(),
		P50LatencyNS:    s.hist.Quantile(0.50),
		P99LatencyNS:    s.hist.Quantile(0.99),
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /decide", s.handleDecide)
	mux.HandleFunc("GET /table", s.handleTable)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// handleDecide answers a JSONL batch of decisions: one DecideRequest
// per line in (blank lines skipped, no header: a batch is what `curl
// --data-binary` sends), a count header plus one DecideReply per line
// out. The whole batch parses before the first decision so a malformed
// line is a clean 400, never a half-answered stream.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	var reqs []DecideRequest
	if !wire.Decode(w, r, s.cfg.MaxBody, func(body io.Reader) error {
		l := gridplan.NewLines(body)
		for {
			var req DecideRequest
			switch err := l.Next(&req); {
			case err == io.EOF && len(reqs) == 0:
				return errors.New("serve: empty decide batch")
			case err == io.EOF:
				return nil
			case err != nil:
				return fmt.Errorf("serve: decide line %d: %w", len(reqs)+1, err)
			}
			reqs = append(reqs, req)
		}
	}) {
		return
	}

	version := s.dec.Version()
	replies := make([]DecideReply, len(reqs))
	var hb histBatch // one shared-histogram flush per batch, not per decision
	for i, req := range reqs {
		maxN := req.MaxN
		if maxN == 0 {
			maxN = s.defaultMaxN
		}
		t0 := time.Now()
		n, p, cached := s.dec.Decide(req.Key, req.X, maxN)
		hb.Observe(time.Since(t0).Nanoseconds())
		replies[i] = DecideReply{N: n, P: p, Version: version, Cached: cached}
	}
	hb.FlushTo(&s.hist)

	w.Header().Set("Content-Type", "application/jsonl")
	gridplan.WriteLines(w, decideHeader{Serve: "decide", Count: len(replies), Version: version}, replies)
}

// handleTable serves the policy table. Profile-backed rows come first,
// byte for byte what `poisesim -best` prints for the same profile
// directory (both render profile.BestTable — CI diffs them literally).
// Kernels that arrived via /ingest follow: each row is the active
// model's decision for that kernel's latest feature vector, so the rows
// track every re-ingest and every retrain.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	var table string
	if s.cfg.ProfileDir != "" {
		var err error
		table, err = profile.BestTable(s.cfg.ProfileDir, s.cfg.Params)
		if err != nil {
			http.Error(w, "serve: deriving policy table: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	rows := s.ingestedRows()
	if table == "" && len(rows) == 0 {
		http.Error(w, "serve: no profile store configured and nothing ingested", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, table)
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
}

// registerIngested records rec's kernels in the /table registry. The
// key is workload-qualified so two workloads' same-named kernels get
// a row each; a re-ingest of the same kernel refreshes its feature
// vector in place.
func (s *Server) registerIngested(rec Record) {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	for _, sm := range rec.Samples {
		maxN := sm.MaxN
		if maxN < 1 || maxN > MaxTableN {
			maxN = s.defaultMaxN
		}
		key := "ingest/" + rec.Signature.Workload + "/" + sm.Kernel
		s.ingested[key] = ingestedKernel{name: sm.Kernel, x: sm.X, maxN: maxN}
	}
}

// ingestedRows renders the /ingest-arrived rows of /table, every one
// predicted from one read of the active weights (and labelled with
// their version), so a table rendered across a retrain never mixes two
// models. A name-keyed memo entry would outlive a re-ingest that
// changed the features, so the rows do not go through Decide. Sorted
// by rendered form, matching BestTableRows' ordering discipline.
func (s *Server) ingestedRows() []string {
	s.ingMu.Lock()
	kernels := make([]ingestedKernel, 0, len(s.ingested))
	for _, k := range s.ingested {
		kernels = append(kernels, k)
	}
	s.ingMu.Unlock()
	weights, version := s.dec.Weights()
	rows := make([]string, 0, len(kernels))
	for _, k := range kernels {
		n, p := weights.PredictTuple(k.x, k.maxN)
		rows = append(rows, fmt.Sprintf("%-14s model (%2d,%2d) weights v%d", k.name, n, p, version))
	}
	sort.Strings(rows)
	return rows
}

// handleIngest accepts a raw poisetrace container or a JSON Record,
// plain or gzipped (MaxBody bounds both sizes), told apart by content.
// Raw traces are piped through the streaming trace reader — the body
// flows straight into flat replay arenas, never buffered whole — then
// characterised and profiled on the spot, the online analogue of the
// offline training pipeline; finally the record is appended to the
// sample log and the background retrainer notified.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var rec Record
	var wl *sim.Workload // a raw trace, still to be profiled
	if !wire.Decode(w, r, s.cfg.MaxBody, func(body io.Reader) (err error) {
		rec, wl, err = s.readIngest(body)
		if errors.Is(err, snap.ErrTooLarge) { // inflated past MaxBody: refused as one sent past it
			err = fmt.Errorf("%w (%w)", err, &http.MaxBytesError{Limit: s.cfg.MaxBody})
		}
		return err
	}) {
		return
	}
	if wl != nil {
		// The same admission and scoring pipeline the offline trainer
		// uses; a failure here is the service's, not the upload's.
		// Keyed by content (profile.Key): a re-recorded name re-sweeps.
		store := profile.Store{Dir: s.cfg.SweepCache}
		ds, err := poise.BuildDataset(s.cfg.SimCfg, s.cfg.Params, []*sim.Workload{wl}, s.cfg.Sweep, store)
		if err != nil {
			http.Error(w, fmt.Sprintf("serve: profiling ingested trace %s: %v", wl.Name, err), http.StatusInternalServerError)
			return
		}
		rec.Samples = ds.Samples
	}

	records, samples, err := s.ret.Ingest(rec)
	if err != nil {
		http.Error(w, "serve: ingest: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.registerIngested(rec)
	s.cfg.Logf("serve: ingested %s: %d samples (%d records, %d samples total)",
		rec.Signature.Workload, len(rec.Samples), records, samples)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(IngestReply{
		Workload:       rec.Signature.Workload,
		Samples:        len(rec.Samples),
		Records:        records,
		TotalSamples:   samples,
		WeightsVersion: s.dec.Version(),
	})
}

// readIngest reads an /ingest body: a JSON record, or a raw trace
// streamed into replayable form (characterised in the same pass) and
// returned as wl, with only the record's signature filled in.
func (s *Server) readIngest(body io.Reader) (rec Record, wl *sim.Workload, err error) {
	br, format, err := snap.Open(body, s.cfg.MaxBody)
	switch {
	case err != nil:
		err = fmt.Errorf("serve: reading ingest body: %w", err)
	case format == snap.Poisetrace:
		if wl, rec.Signature, err = traceio.ReadWorkload(br, &traceio.CharacteriseOptions{}); err != nil {
			err = fmt.Errorf("serve: parsing ingested trace: %w", err)
		}
	default:
		var data []byte
		if data, err = io.ReadAll(br); err != nil {
			err = fmt.Errorf("serve: reading ingest body: %w", err)
		} else if err = json.Unmarshal(data, &rec); err != nil {
			err = fmt.Errorf("serve: ingest body is neither a poisetrace nor a JSON record: %w", err)
		} else if rec.Signature.Workload == "" && len(rec.Samples) == 0 {
			err = errors.New("serve: ingest record is empty")
		}
	}
	return rec, wl, err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// Serve runs the service on addr until ctx is cancelled or the
// listener fails (wire.Serve: in-flight requests get its drain window),
// then closes it: the retrainer folds any still-pending samples
// (writing the final weights file) before Serve returns. The bound
// address (useful with ":0") is reported through addrCh when non-nil.
func (s *Server) Serve(ctx context.Context, addr string, addrCh chan<- string) error {
	err := wire.Serve(ctx, addr, s.Handler(), func(a net.Addr) {
		if addrCh != nil {
			addrCh <- a.String()
		}
	})
	if ctx.Err() != nil {
		s.cfg.Logf("serve: shutting down")
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}
