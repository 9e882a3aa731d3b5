package serve

import (
	"os"
	"sync"
	"sync/atomic"

	"poise/internal/poise"
)

// RetrainOptions tunes the online-adaptation loop.
type RetrainOptions struct {
	// Min is the sample count required before the first retrain fires
	// (the GLM needs a few observations per feature to be worth
	// fitting); <= 0 means DefaultMinRetrain.
	Min int
	// WeightsOut, when set, is atomically rewritten (Weights.Save)
	// after every successful retrain, so the file on disk is always a
	// complete, loadable artefact.
	WeightsOut string
	// Logf receives retrain progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultMinRetrain is the default sample threshold for the first
// retrain: two observations per feature, comfortably past the
// identifiability floor of the 8-feature regression.
const DefaultMinRetrain = 2 * poise.NumFeatures

// Retrainer folds ingested samples into poise.Train on a single
// background goroutine and hot-swaps the result into its Decider.
//
// Determinism: every retrain fits the *full* sample prefix in ingest
// order, so the final weights are a pure function of the complete log
// — however the background goroutine batches its work, and whether the
// log was built in one process or replayed across restarts, a fixed
// ingest sequence converges to an identical weights file.
type Retrainer struct {
	d    *Decider
	opts RetrainOptions
	log  *Log // nil = memory-only (no durable sample log)

	mu         sync.Mutex
	cond       *sync.Cond
	samples    []poise.Sample
	replayed   []Record // log history, drained once by the server at boot
	records    int64
	gen        int64 // bumped per ingest
	trainedGen int64 // loop has folded everything up to this gen
	closed     bool
	done       bool // loop has exited

	retrains  atomic.Int64
	trainErrs atomic.Int64
}

// NewRetrainer starts the adaptation loop for d. A non-empty logPath
// opens (or creates) the durable sample log; records already in it are
// folded immediately, so a restarted service reconverges to the same
// model before serving its first ingest.
func NewRetrainer(d *Decider, logPath string, opts RetrainOptions) (*Retrainer, error) {
	if opts.Min <= 0 {
		opts.Min = DefaultMinRetrain
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	r := &Retrainer{d: d, opts: opts}
	r.cond = sync.NewCond(&r.mu)
	if logPath != "" {
		log, recs, err := OpenLog(logPath)
		if err != nil {
			return nil, err
		}
		r.log = log
		r.replayed = recs
		for _, rec := range recs {
			r.records++
			r.samples = append(r.samples, rec.Samples...)
		}
		if len(r.samples) > 0 {
			r.gen++ // wake the loop once for the replayed history
		}
	}
	go r.loop()
	return r, nil
}

// Ingest appends one record to the log (when durable) and hands its
// samples to the background loop. It returns the record and sample
// totals after the append. Ingest order is the determinism anchor:
// callers that need reproducible weights must fix it.
func (r *Retrainer) Ingest(rec Record) (records, totalSamples int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.records, int64(len(r.samples)), os.ErrClosed
	}
	if r.log != nil {
		// Log first: a failed append leaves at most a torn line, which
		// the next OpenLog truncates — the in-memory state never gets
		// ahead of the durable state.
		if err := r.log.Append(rec); err != nil {
			return r.records, int64(len(r.samples)), err
		}
	}
	r.records++
	r.samples = append(r.samples, rec.Samples...)
	if len(rec.Samples) > 0 {
		r.gen++
		r.cond.Broadcast()
	}
	return r.records, int64(len(r.samples)), nil
}

// DrainReplayed hands over (and releases) the records replayed from the
// sample log at construction, so the server can re-register their
// kernels — a restarted service serves the same /table rows the
// previous life earned through /ingest.
func (r *Retrainer) DrainReplayed() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := r.replayed
	r.replayed = nil
	return recs
}

// Totals returns the ingested record and sample counts.
func (r *Retrainer) Totals() (records, totalSamples int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records, int64(len(r.samples))
}

// Retrains returns the successful retrain count.
func (r *Retrainer) Retrains() int64 { return r.retrains.Load() }

// Errors returns the failed retrain count.
func (r *Retrainer) Errors() int64 { return r.trainErrs.Load() }

// Flush blocks until every sample ingested before the call has been
// folded (trained on, or skipped for being under the threshold).
func (r *Retrainer) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for g := r.gen; r.trainedGen < g && !r.done; {
		r.cond.Wait()
	}
}

// Close drains pending work — a final retrain if samples arrived since
// the last one — then stops the loop and closes the log.
func (r *Retrainer) Close() error {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.cond.Broadcast()
	}
	for !r.done {
		r.cond.Wait()
	}
	r.mu.Unlock()
	if r.log != nil {
		return r.log.Close()
	}
	return nil
}

func (r *Retrainer) loop() {
	r.mu.Lock()
	for {
		for !r.closed && r.trainedGen == r.gen {
			r.cond.Wait()
		}
		if r.trainedGen == r.gen { // closed with nothing pending
			r.done = true
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		g := r.gen
		// Full-prefix snapshot: the backing array is append-only, so the
		// three-index slice is safe to read unlocked.
		s := r.samples[:len(r.samples):len(r.samples)]
		r.mu.Unlock()

		if len(s) >= r.opts.Min {
			r.train(s)
		}

		r.mu.Lock()
		r.trainedGen = g
		r.cond.Broadcast()
	}
}

func (r *Retrainer) train(s []poise.Sample) {
	w, err := poise.Train(&poise.Dataset{Samples: s}, poise.TrainOptions{})
	if err != nil {
		r.trainErrs.Add(1)
		r.opts.Logf("serve: retrain on %d samples failed: %v", len(s), err)
		return
	}
	v, err := r.d.Swap(w)
	if err != nil {
		r.trainErrs.Add(1)
		r.opts.Logf("serve: retrained weights rejected: %v", err)
		return
	}
	r.retrains.Add(1)
	if r.opts.WeightsOut != "" {
		if werr := w.Save(r.opts.WeightsOut); werr != nil {
			r.opts.Logf("serve: writing %s: %v", r.opts.WeightsOut, werr)
		}
	}
	r.opts.Logf("serve: retrained on %d samples -> weights v%d", len(s), v)
}
