package serve

import (
	"os"

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
}

// DefaultMinRetrain is the default sample threshold for the first
// retrain: two observations per feature, comfortably past the
// identifiability floor of the 8-feature regression.
const DefaultMinRetrain = 2 * poise.NumFeatures

// ingest appends rec to the sample log (when durable) and its samples
// to the prefix. When rec carries samples and the prefix has reached
// Min, it makes sure a retrain covering them has run before returning,
// so the reply reports a model that has seen this ingest. Ingest order
// is the determinism anchor: callers that need reproducible weights
// must fix it.
func (s *Server) ingest(rec Record) (IngestReply, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return IngestReply{}, os.ErrClosed
	}
	if s.log != nil {
		// Log first: a failed append leaves at most a torn line, which
		// the next OpenLog truncates — the in-memory state never gets
		// ahead of the durable state.
		if err := s.log.Append(rec); err != nil {
			s.mu.Unlock()
			return IngestReply{}, err
		}
	}
	s.add(rec)
	rep := IngestReply{
		Workload:     rec.Signature.Workload,
		Samples:      len(rec.Samples),
		Records:      s.records,
		TotalSamples: int64(len(s.samples)),
	}
	s.mu.Unlock()
	s.cfg.Logf("serve: ingested %s: %d samples (%d records, %d samples total)",
		rep.Workload, rep.Samples, rep.Records, rep.TotalSamples)
	if rep.Samples > 0 {
		s.retrain(int(rep.TotalSamples))
	}
	rep.WeightsVersion = s.dec.Version()
	return rep, nil
}

// add folds rec into the prefix and the /table registry. The registry
// key is workload-qualified so two workloads' same-named kernels get a
// row each; a re-ingest of the same kernel refreshes its feature
// vector in place. s.mu must be held.
func (s *Server) add(rec Record) {
	s.records++
	s.samples = append(s.samples, rec.Samples...)
	for _, sm := range rec.Samples {
		maxN := sm.MaxN
		if maxN < 1 || maxN > MaxTableN {
			maxN = s.defaultMaxN
		}
		key := "ingest/" + rec.Signature.Workload + "/" + sm.Kernel
		s.ingested[key] = ingestedKernel{name: sm.Kernel, x: sm.X, maxN: maxN}
	}
}

// retrain makes sure a fit covering the first upTo samples has run.
// Unless a fit that ran while this caller waited for fitMu already
// covered them, it fits poise.Train on the full prefix, once that holds
// Min samples, hot-swaps the result into the Decider and rewrites
// WeightsOut. Fits run one at a time on ever longer prefixes in ingest
// order, so the last one written is poise.Train of the whole log: a
// fixed ingest sequence lands on the same weights file whether its
// records arrived one by one or were replayed at restart.
func (s *Server) retrain(upTo int) {
	s.fitMu.Lock()
	defer s.fitMu.Unlock()
	if s.fitted >= upTo {
		return
	}
	s.mu.Lock()
	// The backing array is append-only, so the three-index slice is
	// safe to read once mu is released.
	prefix := s.samples[:len(s.samples):len(s.samples)]
	s.mu.Unlock()
	s.fitted = len(prefix)
	if len(prefix) < s.cfg.Retrain.Min {
		return
	}
	w, err := poise.Train(&poise.Dataset{Samples: prefix}, poise.TrainOptions{})
	if err != nil {
		s.retrainErrs.Add(1)
		s.cfg.Logf("serve: retrain on %d samples failed: %v", len(prefix), err)
		return
	}
	v, err := s.dec.Swap(w)
	if err != nil {
		s.retrainErrs.Add(1)
		s.cfg.Logf("serve: retrained weights rejected: %v", err)
		return
	}
	s.retrains.Add(1)
	if out := s.cfg.Retrain.WeightsOut; out != "" {
		if werr := w.Save(out); werr != nil {
			s.cfg.Logf("serve: writing %s: %v", out, werr)
		}
	}
	s.cfg.Logf("serve: retrained on %d samples -> weights v%d", len(prefix), v)
}
