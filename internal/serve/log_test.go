package serve

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"poise/internal/poise"
	"poise/internal/traceio"
)

// synthRecord builds a deterministic, trainable record: feature
// vectors in [0, 1] and targets on an exact log-linear surface
// y = exp(a.x), so the Negative Binomial fit converges quickly and
// identically on every run.
func synthRecord(seed, n int) Record {
	alphaTrue := [poise.NumFeatures]float64{0.9, 0.6, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1}
	betaTrue := [poise.NumFeatures]float64{0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.1, 0.05}
	rec := Record{Signature: traceio.Signature{Workload: "synth", Kernels: n}}
	for i := 0; i < n; i++ {
		var x poise.Vector
		for j := range x {
			x[j] = 0.5 + 0.5*math.Sin(float64(seed*1013+i*97+j*31))
		}
		var etaN, etaP float64
		for j := range x {
			etaN += alphaTrue[j] * x[j]
			etaP += betaTrue[j] * x[j]
		}
		tn := math.Min(24, math.Max(1, math.Exp(etaN)))
		tp := math.Min(tn, math.Max(1, math.Exp(etaP)))
		rec.Samples = append(rec.Samples, poise.Sample{
			Kernel:  "synth",
			X:       x,
			TargetN: tn,
			TargetP: tp,
			RawN:    int(math.Round(tn)),
			RawP:    int(math.Round(tp)),
			MaxN:    24,
		})
	}
	return rec
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.jsonl")
	l, recs, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	want := []Record{synthRecord(1, 3), synthRecord(2, 2), {Signature: traceio.Signature{Workload: "empty"}}}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything comes back.
	l2, recs, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("reopened log has %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Signature.Workload != want[i].Signature.Workload ||
			len(recs[i].Samples) != len(want[i].Samples) {
			t.Fatalf("record %d mismatch: %+v", i, recs[i].Signature)
		}
		for j := range want[i].Samples {
			if recs[i].Samples[j] != want[i].Samples[j] {
				t.Fatalf("record %d sample %d drifted through the log", i, j)
			}
		}
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.jsonl")
	l, _, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(synthRecord(1, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: valid prefix + torn partial line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"signature":{"workload":"to`)
	f.Close()

	l2, recs, err := OpenLog(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want the 1 intact one", len(recs))
	}
	// The torn bytes are gone: the next append starts a clean line.
	if err := l2.Append(synthRecord(2, 1)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("after truncate+append: %d records, want 2", len(recs))
	}
}

func TestLogRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad-header":   "{\"format\":\"something-else\",\"version\":1}\n",
		"new-version":  "{\"format\":\"poisesamples\",\"version\":99}\n",
		"bad-mid-line": "{\"format\":\"poisesamples\",\"version\":1}\nnot json\n{\"signature\":{\"workload\":\"x\"}}\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenLog(path); err == nil {
			t.Errorf("%s: OpenLog accepted corrupt log", name)
		}
		if _, _, err := parseLog([]byte(content)); err == nil {
			t.Errorf("%s: parseLog accepted corrupt log", name)
		}
	}
}
