package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poise/internal/poise"
	"poise/internal/traceio"
)

// newIngestServer builds a Server on the test weights with no HTTP
// face, for driving ingest directly.
func newIngestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Weights = testWeights()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// trainOn is poise.Train over the records' samples in order: what the
// service must serve once they are all ingested past the threshold.
func trainOn(t *testing.T, recs ...Record) poise.Weights {
	t.Helper()
	var ds poise.Dataset
	for _, rec := range recs {
		ds.Samples = append(ds.Samples, rec.Samples...)
	}
	w, err := poise.Train(&ds, poise.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRetrainerSwapsAfterThreshold: the ingest that brings the prefix
// to Min retrains before it returns, so its own reply carries the new
// version and the served weights are already poise.Train of the prefix.
// Versions stay dense: one per ingest that adds samples past Min.
func TestRetrainerSwapsAfterThreshold(t *testing.T) {
	s := newIngestServer(t, Config{Retrain: RetrainOptions{Min: 8}})

	// Below the threshold: folded, but no retrain fires.
	below := synthRecord(1, 4)
	rep, err := s.ingest(below)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WeightsVersion != 1 || s.Stats().Retrains != 0 {
		t.Fatalf("retrained on %d samples below the threshold: %+v", len(below.Samples), rep)
	}

	// Crossing it: one retrain over the full prefix, inside the ingest.
	crossing := synthRecord(2, 8)
	rep, err = s.ingest(crossing)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.TotalSamples != 12 || rep.WeightsVersion != 2 {
		t.Fatalf("reply of the crossing ingest = %+v, want 2 records, 12 samples, weights v2", rep)
	}
	if got, v := s.dec.Weights(); v != 2 || got != trainOn(t, below, crossing) {
		t.Fatalf("served weights v%d are not poise.Train of the prefix", v)
	}

	// A record without samples changes nothing the model sees.
	if rep, err = s.ingest(Record{}); err != nil || rep.WeightsVersion != 2 {
		t.Fatalf("a sample-less ingest: %+v, %v; want weights v2", rep, err)
	}
	if rep, err = s.ingest(synthRecord(3, 2)); err != nil || rep.WeightsVersion != 3 {
		t.Fatalf("the next ingest with samples: %+v, %v; want weights v3", rep, err)
	}
	if st := s.Stats(); st.Retrains != 2 || st.RetrainErrors != 0 || st.IngestedRecords != 4 {
		t.Fatalf("stats = %+v, want 4 records and 2 clean retrains", st)
	}
}

// TestRetrainDeterministic pins the acceptance criterion: the final
// weights are a pure function of the ingest sequence. One service sees
// the records one at a time (a retrain per record past Min), a second
// replays the same records from the sample log at boot (one retrain);
// both weights files must byte-match Weights.Save of poise.Train over
// the full prefix.
func TestRetrainDeterministic(t *testing.T) {
	recs := []Record{synthRecord(1, 6), synthRecord(2, 5), synthRecord(3, 7), synthRecord(4, 6)}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "samples.jsonl")
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	live := newIngestServer(t, Config{SampleLog: logPath,
		Retrain: RetrainOptions{Min: 8, WeightsOut: filepath.Join(dir, "live.json")}})
	for i, rec := range recs {
		rep, err := live.ingest(rec)
		if err != nil {
			t.Fatal(err)
		}
		// The first record is under Min; each later one retrains.
		if want := int64(i + 1); rep.WeightsVersion != want {
			t.Fatalf("ingest %d: weights v%d, want v%d", i, rep.WeightsVersion, want)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := newIngestServer(t, Config{SampleLog: logPath,
		Retrain: RetrainOptions{Min: 8, WeightsOut: filepath.Join(dir, "replayed.json")}})
	if st := replayed.Stats(); st.Retrains != 1 || st.WeightsVersion != 2 {
		t.Fatalf("replay at boot: %+v, want one retrain to weights v2", st)
	}

	want := trainOn(t, recs...)
	if err := want.Save(filepath.Join(dir, "want.json")); err != nil {
		t.Fatal(err)
	}
	if got := read("live.json"); string(got) != string(read("want.json")) {
		t.Fatalf("live weights file is not poise.Train of the prefix:\n%s", got)
	}
	if got := read("replayed.json"); string(got) != string(read("want.json")) {
		t.Fatalf("replayed weights file differs from the live one:\n%s", got)
	}
	if w, _ := replayed.dec.Weights(); w != want {
		t.Fatal("the replayed service does not serve the file it wrote")
	}
}

// TestRetrainerReplaysLog: a restart over an existing sample log
// reconverges to the same model before New returns.
func TestRetrainerReplaysLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "samples.jsonl")
	cfg := Config{SampleLog: logPath, Retrain: RetrainOptions{Min: 6}}

	s1 := newIngestServer(t, cfg)
	if _, err := s1.ingest(synthRecord(1, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	w1, _ := s1.dec.Weights()

	s2 := newIngestServer(t, cfg)
	if w2, _ := s2.dec.Weights(); w1 != w2 {
		t.Fatalf("replayed log produced a different model:\n%+v\n%+v", w1, w2)
	}
	if st := s2.Stats(); st.IngestedRecords != 1 || st.TotalSamples != 9 {
		t.Fatalf("replayed totals = (%d,%d), want (1,9)", st.IngestedRecords, st.TotalSamples)
	}
}

func TestIngestAfterCloseFails(t *testing.T) {
	s := newIngestServer(t, Config{Retrain: RetrainOptions{Min: 4}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ingest(synthRecord(1, 1)); err == nil {
		t.Fatal("ingest after Close must fail")
	}
}

// TestRetrainFitsTheFullModel: the service fits the whole Table II
// vector, as poise.Train does with zero options; no feature is left
// out of a model the service hot-swaps.
func TestRetrainFitsTheFullModel(t *testing.T) {
	s := newIngestServer(t, Config{Retrain: RetrainOptions{Min: 8}})
	rec := synthRecord(1, 12)
	if _, err := s.ingest(rec); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Retrains != 1 || st.RetrainErrors != 0 {
		t.Fatalf("%d retrains, %d errors; want 1 and 0", st.Retrains, st.RetrainErrors)
	}
	got, _ := s.dec.Weights()
	if want := trainOn(t, rec); got != want {
		t.Fatalf("served weights %+v, want %+v", got, want)
	}
	if got.Dropped != -1 || got.Alpha[0] == 0 {
		t.Fatalf("served model drops a feature: Dropped %d, Alpha[0] %v", got.Dropped, got.Alpha[0])
	}
}

// TestRetrainBurstSharesOneFit: ingests that queue behind a running
// retrain append first, and the next fit covers them all, so a burst
// costs one fit, not one each. Every reply still reports a model that
// has seen its own samples, and that model is poise.Train of the log.
func TestRetrainBurstSharesOneFit(t *testing.T) {
	s := newIngestServer(t, Config{Retrain: RetrainOptions{Min: 8}})
	if _, err := s.ingest(synthRecord(1, 9)); err != nil {
		t.Fatal(err)
	}

	const burst = 4
	s.fitMu.Lock() // a retrain is running
	replies := make(chan IngestReply, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			rep, err := s.ingest(synthRecord(10+i, 3))
			if err != nil {
				t.Error(err)
			}
			replies <- rep
		}(i)
	}
	for s.Stats().IngestedRecords < 1+burst {
		time.Sleep(time.Millisecond)
	}
	s.fitMu.Unlock()

	for i := 0; i < burst; i++ {
		if rep := <-replies; rep.WeightsVersion != 3 {
			t.Fatalf("burst reply %+v, want weights v3", rep)
		}
	}
	if st := s.Stats(); st.Retrains != 2 || st.TotalSamples != 9+3*burst {
		t.Fatalf("stats = %+v, want 2 retrains over %d samples", st, 9+3*burst)
	}
	want, err := poise.Train(&poise.Dataset{Samples: s.samples}, poise.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.dec.Weights(); got != want {
		t.Fatal("served weights are not poise.Train of the log")
	}
}

// TestStatsAndTableNeverWaitOnAFit: /stats and /table read the
// counters and the kernel registry while a retrain runs.
func TestStatsAndTableNeverWaitOnAFit(t *testing.T) {
	s := newIngestServer(t, Config{Retrain: RetrainOptions{Min: 8}})
	if _, err := s.ingest(synthRecord(1, 9)); err != nil {
		t.Fatal(err)
	}
	s.fitMu.Lock() // a retrain is running
	defer s.fitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.Stats()
		s.ingestedRows()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stats or the /table rows waited on a running retrain")
	}
}

// BenchmarkIngestRecord times pre-characterised JSON-record ingests
// over HTTP (four samples each, drawn from the shipped training set)
// against a sample log that already holds 60, 600 or 6 000 samples,
// from one client and from eight; ns/op is wall time per ingest. A
// reply waits for the retrain that covers its samples, so one client
// pays a fit per ingest, and eight share the fits their burst queues.
func BenchmarkIngestRecord(b *testing.B) {
	ds, _, err := poise.LoadDataset(filepath.Join("..", "poise", "testdata", "dataset.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	pool := ds.Samples
	record := func(i, n int) Record {
		rec := Record{Signature: traceio.Signature{Workload: "bench"}}
		for j := 0; j < n; j++ {
			rec.Samples = append(rec.Samples, pool[(i*n+j)%len(pool)])
		}
		return rec
	}
	for _, logSize := range []int{60, 600, 6000} {
		for _, clients := range []int{1, 8} {
			b.Run(fmt.Sprintf("log=%d/clients=%d", logSize, clients), func(b *testing.B) {
				s, err := New(Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 16}})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < logSize/10; i++ {
					if _, err := s.ingest(record(i, 10)); err != nil {
						b.Fatal(err)
					}
				}
				ts := httptest.NewServer(s.Handler())
				defer func() {
					ts.Close()
					s.Close()
				}()
				c := &Client{Base: ts.URL, HTTP: ts.Client()}
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for g := 0; g < clients; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
							if _, err := c.IngestRecord(context.Background(), record(int(i), 4)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
