package serve

import (
	"os"
	"path/filepath"
	"testing"

	"poise/internal/poise"
)

func newTestRetrainer(t *testing.T, logPath string, min int) (*Decider, *Retrainer) {
	t.Helper()
	d, err := NewDecider(testWeights())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRetrainer(d, logPath, RetrainOptions{Min: min})
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestRetrainerSwapsAfterThreshold(t *testing.T) {
	d, r := newTestRetrainer(t, "", 8)
	defer r.Close()

	// Below the threshold: folded, but no retrain fires.
	if _, _, err := r.Ingest(synthRecord(1, 4)); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if got := r.Retrains(); got != 0 {
		t.Fatalf("retrained on %d samples below threshold (%d retrains)", 4, got)
	}
	if v := d.Version(); v != 1 {
		t.Fatalf("version moved to %d without a retrain", v)
	}

	// Crossing it: exactly one retrain over the full prefix.
	if _, _, err := r.Ingest(synthRecord(2, 8)); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if got := r.Retrains(); got < 1 {
		t.Fatal("no retrain after crossing the sample threshold")
	}
	if r.Errors() != 0 {
		t.Fatalf("%d retrain errors", r.Errors())
	}
	if v := d.Version(); v < 2 {
		t.Fatalf("version still %d after retrain", v)
	}
	records, samples := r.Totals()
	if records != 2 || samples != 12 {
		t.Fatalf("totals = (%d,%d), want (2,12)", records, samples)
	}
}

// TestRetrainDeterministic pins the acceptance criterion: the final
// weights are a pure function of the ingest sequence. One service sees
// the records one at a time (a retrain per record), the other gets
// them in a single burst (one retrain); both must land on identical
// weights, and the files written along the way must byte-match.
func TestRetrainDeterministic(t *testing.T) {
	recs := []Record{synthRecord(1, 6), synthRecord(2, 5), synthRecord(3, 7), synthRecord(4, 6)}

	finalWeights := func(flushEach bool) (poise.Weights, []byte) {
		dir := t.TempDir()
		out := filepath.Join(dir, "weights.json")
		d, err := NewDecider(testWeights())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRetrainer(d, filepath.Join(dir, "samples.jsonl"), RetrainOptions{Min: 8, WeightsOut: out, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if _, _, err := r.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if flushEach {
				r.Flush()
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r.Errors() != 0 {
			t.Fatalf("%d retrain errors", r.Errors())
		}
		w, _ := d.Weights()
		// The written artefact must load back to exactly the active model.
		loaded, err := poise.LoadWeights(out)
		if err != nil {
			t.Fatal(err)
		}
		if loaded != w {
			t.Fatal("weights file does not match the active model")
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return w, raw
	}

	wStep, rawStep := finalWeights(true)
	wBurst, rawBurst := finalWeights(false)
	if wStep != wBurst {
		t.Fatalf("retrain batching changed the model:\n%+v\n%+v", wStep, wBurst)
	}
	if string(rawStep) != string(rawBurst) {
		t.Fatal("weights files differ between batchings")
	}
}

// TestRetrainerReplaysLog: a restart over an existing sample log
// reconverges to the same model before serving anything new.
func TestRetrainerReplaysLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "samples.jsonl")

	d1, r1 := newTestRetrainer(t, logPath, 6)
	if _, _, err := r1.Ingest(synthRecord(1, 9)); err != nil {
		t.Fatal(err)
	}
	r1.Flush()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	w1, _ := d1.Weights()

	d2, r2 := newTestRetrainer(t, logPath, 6)
	r2.Flush()
	defer r2.Close()
	w2, _ := d2.Weights()
	if w1 != w2 {
		t.Fatalf("replayed log produced a different model:\n%+v\n%+v", w1, w2)
	}
	if records, samples := r2.Totals(); records != 1 || samples != 9 {
		t.Fatalf("replayed totals = (%d,%d), want (1,9)", records, samples)
	}
}

func TestIngestAfterCloseFails(t *testing.T) {
	_, r := newTestRetrainer(t, "", 4)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Ingest(synthRecord(1, 1)); err == nil {
		t.Fatal("Ingest after Close must fail")
	}
}

// TestRetrainFitsTheFullModel: the retrainer fits the whole Table II
// vector, as poise.Train does with zero options; no feature is left
// out of a model the service hot-swaps.
func TestRetrainFitsTheFullModel(t *testing.T) {
	d, r := newTestRetrainer(t, "", 8)
	defer r.Close()
	rec := synthRecord(1, 12)
	if _, _, err := r.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if r.Retrains() != 1 || r.Errors() != 0 {
		t.Fatalf("%d retrains, %d errors; want 1 and 0", r.Retrains(), r.Errors())
	}
	want, err := poise.Train(&poise.Dataset{Samples: rec.Samples}, poise.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.Weights()
	if got != want {
		t.Fatalf("served weights %+v, want %+v", got, want)
	}
	if got.Dropped != -1 || got.Alpha[0] == 0 {
		t.Fatalf("served model drops a feature: Dropped %d, Alpha[0] %v", got.Dropped, got.Alpha[0])
	}
}
