package poise

import (
	"fmt"
	"io"
	"os"

	"poise/internal/gridplan"
)

// The training set as a file: the JSONL container (gridplan.WriteLines,
// gridplan.Lines) with one header line, then one Sample per line in
// BuildDataset's order. cmd/poisetrain -emit writes the shipped set to
// internal/poise/testdata/dataset.jsonl beside the weights it fits, so a
// learner is compared on it in milliseconds instead of after a sweep.
// encoding/json writes the shortest decimal that parses back to the
// same float64, so a decoded set encodes to the same bytes.

const (
	datasetFormat  = "poisedataset"
	datasetVersion = 1
)

// Provenance is the configuration a dataset was built at.
type Provenance struct {
	SMs   int    `json:"sms"`
	Size  string `json:"size"`
	StepN int    `json:"stepn"`
	StepP int    `json:"stepp"`
}

type datasetHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Samples int    `json:"samples"`
	Provenance
	RejectedSpeedup int `json:"rejected_speedup"`
	RejectedCycles  int `json:"rejected_cycles"`
	RejectedHitRate int `json:"rejected_hitrate"`
}

// sampleLine is a Sample as it is read. X goes through a slice, as
// ParseWeights' vectors do: encoding/json pads a short array and drops
// the surplus of a long one without an error.
type sampleLine struct {
	Kernel       string
	X            []float64
	TargetN      float64
	TargetP      float64
	RawN, RawP   int
	MaxN         int
	BestSpeedup  float64
	ScoreSpeedup float64
}

// WriteDataset writes ds, built at at, as a dataset file.
func WriteDataset(w io.Writer, ds *Dataset, at Provenance) error {
	return gridplan.WriteLines(w, datasetHeader{
		Format: datasetFormat, Version: datasetVersion, Samples: len(ds.Samples), Provenance: at,
		RejectedSpeedup: ds.RejectedSpeedup, RejectedCycles: ds.RejectedCycles, RejectedHitRate: ds.RejectedHitRate,
	}, ds.Samples)
}

// ReadDataset parses a dataset file strictly: the header's format and
// version, exactly as many sample lines as it declares (no blank line,
// none after the last) and eight features per sample. encoding/json
// itself refuses a NaN or an infinite number.
func ReadDataset(r io.Reader) (*Dataset, Provenance, error) {
	l := gridplan.NewLines(r)
	var h datasetHeader
	if err := l.Exact(&h); err != nil {
		return nil, Provenance{}, fmt.Errorf("poise: dataset header: %w", err)
	}
	if h.Format != datasetFormat {
		return nil, Provenance{}, fmt.Errorf("poise: not a dataset file (format %q)", h.Format)
	}
	if h.Version != datasetVersion {
		return nil, Provenance{}, fmt.Errorf("poise: unsupported dataset version %d (have %d)", h.Version, datasetVersion)
	}
	lines, err := gridplan.ReadCounted[sampleLine](l, h.Samples)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("poise: dataset sample %w", err)
	}
	if extra, _ := io.ReadAll(io.LimitReader(l.Rest(), 1)); len(extra) > 0 {
		return nil, Provenance{}, fmt.Errorf("poise: dataset has more than the %d samples its header declares", h.Samples)
	}
	ds := &Dataset{
		Samples:         make([]Sample, len(lines)),
		RejectedSpeedup: h.RejectedSpeedup,
		RejectedCycles:  h.RejectedCycles,
		RejectedHitRate: h.RejectedHitRate,
	}
	for i, s := range lines {
		if len(s.X) != NumFeatures {
			return nil, Provenance{}, fmt.Errorf("poise: dataset sample %d (%s) has %d features, want %d", i+1, s.Kernel, len(s.X), NumFeatures)
		}
		ds.Samples[i] = Sample{
			Kernel: s.Kernel, TargetN: s.TargetN, TargetP: s.TargetP,
			RawN: s.RawN, RawP: s.RawP, MaxN: s.MaxN,
			BestSpeedup: s.BestSpeedup, ScoreSpeedup: s.ScoreSpeedup,
		}
		copy(ds.Samples[i].X[:], s.X)
	}
	return ds, h.Provenance, nil
}

// LoadDataset reads the dataset file at path.
func LoadDataset(path string) (*Dataset, Provenance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Provenance{}, err
	}
	defer f.Close()
	ds, at, err := ReadDataset(f)
	if err != nil {
		return nil, Provenance{}, fmt.Errorf("%w (reading %s)", err, path)
	}
	return ds, at, nil
}
