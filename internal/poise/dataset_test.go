package poise

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// committedDataset is the training set cmd/poisetrain -emit wrote beside
// the shipped model.
const committedDataset = "testdata/dataset.jsonl"

// TestDatasetRoundTripsTheCommittedFile: decoding the committed training
// set and encoding it again reproduces the file byte for byte, so every
// float survives the trip and the codec is what wrote it.
func TestDatasetRoundTripsTheCommittedFile(t *testing.T) {
	data, err := os.ReadFile(committedDataset)
	if err != nil {
		t.Fatal(err)
	}
	ds, at, err := ReadDataset(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteDataset(&again, ds, at); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("re-encoding the committed dataset changed it:\n%s", again.Bytes())
	}
}

// TestReadDatasetRejects: the reader refuses a file that is not exactly
// what WriteDataset writes, instead of training on part of one.
func TestReadDatasetRejects(t *testing.T) {
	head := `{"format":"poisedataset","version":1,"samples":2,"sms":8,"size":"small","stepn":3,"stepp":3,"rejected_speedup":0,"rejected_cycles":0,"rejected_hitrate":0}` + "\n"
	a := `{"Kernel":"a#0","X":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,1],"TargetN":7,"TargetP":4,"RawN":7,"RawP":4,"MaxN":24,"BestSpeedup":1.5,"ScoreSpeedup":1.5}` + "\n"
	b := strings.Replace(a, "a#0", "b#1", 1)
	cases := []struct {
		name, doc, wantErr string // wantErr "" = valid
	}{
		{"valid", head + a + b, ""},
		{"no final newline", head + a + strings.TrimSuffix(b, "\n"), ""},
		{"empty", "", "header"},
		{"blank header line", "\n" + head + a + b, "header"},
		{"wrong format", strings.Replace(head, "poisedataset", "poiseplan", 1) + a + b, "not a dataset"},
		{"wrong version", strings.Replace(head, `"version":1`, `"version":2`, 1) + a + b, "version"},
		{"count above the lines", strings.Replace(head, `"samples":2`, `"samples":3`, 1) + a + b, "3/3"},
		{"count below the lines", strings.Replace(head, `"samples":2`, `"samples":1`, 1) + a + b, "more than the 1"},
		{"negative count", strings.Replace(head, `"samples":2`, `"samples":-1`, 1) + a + b, "negative"},
		{"blank line between samples", head + a + "\n" + b, "2/2"},
		{"blank line after the last", head + a + b + "\n", "more than the 2"},
		{"extra line", head + a + b + b, "more than the 2"},
		{"seven features", head + a + strings.Replace(b, ",0.7,1]", ",1]", 1), "7 features"},
		{"nine features", head + a + strings.Replace(b, ",0.7,1]", ",0.7,0.8,1]", 1), "9 features"},
		{"no features", head + a + strings.Replace(b, `"X":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,1],`, "", 1), "0 features"},
		{"NaN", head + a + strings.Replace(b, "0.5", "NaN", 1), "2/2"},
		{"Inf", head + a + strings.Replace(b, `"TargetN":7`, `"TargetN":1e999`, 1), "2/2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, _, err := ReadDataset(strings.NewReader(tc.doc))
			if tc.wantErr == "" {
				if err != nil || len(ds.Samples) != 2 || ds.Samples[1].Kernel != "b#1" || ds.Samples[1].X[7] != 1 {
					t.Fatalf("valid dataset read as %+v, %v", ds, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// tupleErrors is the offline prediction error of w on samples, per
// axis: the paper's relative error (EvaluateOffline's) and the mean
// distance in warps beside it, as {relN, relP, absN, absP}.
func tupleErrors(w Weights, samples []Sample) [4]float64 {
	var e [4]float64
	e[0], e[1] = EvaluateOffline(w, samples)
	for _, s := range samples {
		n, p := w.PredictTuple(s.X, s.MaxN)
		e[2] += float64(abs(n-s.RawN)) / float64(len(samples))
		e[3] += float64(abs(p-s.RawP)) / float64(len(samples))
	}
	return e
}

// TestLearnerTableShippedGLM is the first row of the learner comparison
// over the committed training set: the shipped GLM's error per axis,
// in-sample and with each training family (gco, pvr, ccl) held out and
// the model refitted on the other two. It pins what the set is (60
// admitted kernels and no rejection; 8 distinct targets; p only on the
// step-3 grid's 1, 4, 7 and 16, 18 times 1) and the in-sample error
// poisetrain prints, so a learner that claims to beat it is measured
// against the same numbers.
func TestLearnerTableShippedGLM(t *testing.T) {
	ds, _, err := LoadDataset(committedDataset)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := DefaultWeights()
	if !ok {
		t.Fatal("no embedded default weights")
	}
	if len(ds.Samples) != 60 || ds.RejectedSpeedup+ds.RejectedCycles+ds.RejectedHitRate != 0 {
		t.Errorf("the set has %d samples and %d+%d+%d rejected, want 60 and none",
			len(ds.Samples), ds.RejectedSpeedup, ds.RejectedCycles, ds.RejectedHitRate)
	}
	tuples := map[[2]int]bool{}
	pCount := map[int]int{}
	for _, s := range ds.Samples {
		tuples[[2]int{s.RawN, s.RawP}] = true
		pCount[s.RawP]++
	}
	if len(tuples) != 8 {
		t.Errorf("%d distinct target tuples, want 8", len(tuples))
	}
	if len(pCount) != 4 || pCount[1] != 18 || pCount[4]+pCount[7]+pCount[16] != 42 {
		t.Errorf("target p values %v, want only 1 (18 times), 4, 7 and 16", pCount)
	}

	var table strings.Builder
	fmt.Fprintf(&table, "%-24s %8s %8s %8s %8s\n", "shipped GLM", "relN", "relP", "absN", "absP")
	row := func(name string, e [4]float64) {
		fmt.Fprintf(&table, "%-24s %7.1f%% %7.1f%% %8.2f %8.2f\n", name, 100*e[0], 100*e[1], e[2], e[3])
	}
	in := tupleErrors(w, ds.Samples)
	row("in-sample (60)", in)
	if got := fmt.Sprintf("N %.1f%%, p %.1f%%", 100*in[0], 100*in[1]); got != "N 13.1%, p 65.3%" {
		t.Errorf("in-sample error %s, want N 13.1%%, p 65.3%% (what poisetrain prints)", got)
	}
	var pooled [4]float64 // every sample predicted by the model fitted without its family
	for _, family := range []string{"gco", "pvr", "ccl"} {
		var train, held []Sample
		for _, s := range ds.Samples {
			if strings.HasPrefix(s.Kernel, family+"#") {
				held = append(held, s)
			} else {
				train = append(train, s)
			}
		}
		if len(held) == 0 {
			t.Fatalf("no %s kernel in the set", family)
		}
		fw, err := Train(&Dataset{Samples: train}, TrainOptions{Drop: -1})
		if err != nil {
			t.Fatalf("refit without %s: %v", family, err)
		}
		e := tupleErrors(fw, held)
		row(fmt.Sprintf("%s held out (%d)", family, len(held)), e)
		for i := range pooled {
			pooled[i] += e[i] * float64(len(held)) / float64(len(ds.Samples))
		}
	}
	row(fmt.Sprintf("each held out (%d)", len(ds.Samples)), pooled)
	t.Logf("relative error (paper §VII-B) and mean distance in warps:\n%s", table.String())
}
