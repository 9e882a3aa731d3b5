package gridplan

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The JSONL container: one header object on the first line, then one
// record per line. JSONL rather than a single JSON document so workers
// can stream arbitrarily large plans and a truncated transfer is
// detected by the header's count, not by a silent short read.

type planHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tasks   int    `json:"tasks"`
}

type measHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Shard   int    `json:"shard"`
	Of      int    `json:"of"`
	Count   int    `json:"count"`
}

const (
	planFormat = "poiseplan"
	measFormat = "poiseshard"

	// CellPlanFormat tags experiment-cell plan files; exported so
	// callers can dispatch on PlanFileFormat's result.
	CellPlanFormat = "poisecellplan"
	// ProfilePlanFormat is the profile-sweep plan tag, for symmetry.
	ProfilePlanFormat = planFormat
)

// PlanFileFormat reads just the header of a JSONL plan file and
// returns its format tag (ProfilePlanFormat or CellPlanFormat), so a
// command can dispatch a -plan argument to the right pipeline without
// parsing the whole file twice.
func PlanFileFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var h planHeader
	if err := newLineScanner(f).Next(&h); err != nil {
		return "", fmt.Errorf("gridplan: reading %s header: %w", path, err)
	}
	if h.Format == "" {
		return "", fmt.Errorf("gridplan: %s is not a plan file (no format header)", path)
	}
	return h.Format, nil
}

// WritePlan serialises a plan as JSONL.
func WritePlan(w io.Writer, p *Plan) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	v := p.Version
	if v == 0 {
		v = PlanVersion
	}
	if err := enc.Encode(planHeader{Format: planFormat, Version: v, Tasks: len(p.Tasks)}); err != nil {
		return err
	}
	for _, t := range p.Tasks {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPlan parses a JSONL plan, validating the header, the task count
// and the task invariants.
func ReadPlan(r io.Reader) (*Plan, error) {
	sc := newLineScanner(r)
	var h planHeader
	if err := sc.Next(&h); err != nil {
		return nil, fmt.Errorf("gridplan: plan header: %w", err)
	}
	if h.Format != planFormat {
		return nil, fmt.Errorf("gridplan: not a plan file (format %q)", h.Format)
	}
	if h.Version != PlanVersion {
		return nil, fmt.Errorf("gridplan: unsupported plan version %d (have %d)", h.Version, PlanVersion)
	}
	p := &Plan{Version: h.Version}
	for {
		var t Task
		err := sc.Next(&t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gridplan: plan line %d: %w", sc.Line(), err)
		}
		p.Tasks = append(p.Tasks, t)
	}
	if len(p.Tasks) != h.Tasks {
		return nil, fmt.Errorf("gridplan: plan truncated: header says %d tasks, file has %d", h.Tasks, len(p.Tasks))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WritePlanFile writes a plan to path.
func WritePlanFile(path string, p *Plan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WritePlan(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("gridplan: writing %s: %w", path, err)
	}
	return nil
}

// ReadPlanFile reads a plan from path.
func ReadPlanFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadPlan(f)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return p, nil
}

// WriteMeasurements serialises one measurement set as JSONL — a
// refinement round's, in the profile store. shard/of record which part
// of what the file is (round r of r+1 so far); Merge does not trust
// them, they are for operators and error messages.
func WriteMeasurements(w io.Writer, shard, of int, ms []Measurement) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(measHeader{Format: measFormat, Version: PlanVersion, Shard: shard, Of: of, Count: len(ms)}); err != nil {
		return err
	}
	for _, m := range ms {
		if err := enc.Encode(m); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMeasurements parses a measurement file.
func ReadMeasurements(r io.Reader) ([]Measurement, error) {
	sc := newLineScanner(r)
	var h measHeader
	if err := sc.Next(&h); err != nil {
		return nil, fmt.Errorf("gridplan: shard header: %w", err)
	}
	if h.Format != measFormat {
		return nil, fmt.Errorf("gridplan: not a shard measurement file (format %q)", h.Format)
	}
	if h.Version != PlanVersion {
		return nil, fmt.Errorf("gridplan: unsupported shard version %d (have %d)", h.Version, PlanVersion)
	}
	var ms []Measurement
	for {
		var m Measurement
		err := sc.Next(&m)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gridplan: shard line %d: %w", sc.Line(), err)
		}
		ms = append(ms, m)
	}
	if len(ms) != h.Count {
		return nil, fmt.Errorf("gridplan: shard truncated: header says %d measurements, file has %d", h.Count, len(ms))
	}
	return ms, nil
}

// WriteMeasurementsFile writes a measurement file to path.
func WriteMeasurementsFile(path string, shard, of int, ms []Measurement) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteMeasurements(f, shard, of, ms)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("gridplan: writing %s: %w", path, err)
	}
	return nil
}

// ReadMeasurementsFile reads a measurement file from path.
func ReadMeasurementsFile(path string) ([]Measurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ms, err := ReadMeasurements(f)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return ms, nil
}

// WriteCellPlan serialises an experiment-cell plan as JSONL.
func WriteCellPlan(w io.Writer, p *CellPlan) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	v := p.Version
	if v == 0 {
		v = PlanVersion
	}
	if err := enc.Encode(planHeader{Format: CellPlanFormat, Version: v, Tasks: len(p.Cells)}); err != nil {
		return err
	}
	for _, c := range p.Cells {
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCellPlan parses a JSONL cell plan, validating the header, the
// cell count and the cell invariants.
func ReadCellPlan(r io.Reader) (*CellPlan, error) {
	sc := newLineScanner(r)
	var h planHeader
	if err := sc.Next(&h); err != nil {
		return nil, fmt.Errorf("gridplan: cell plan header: %w", err)
	}
	if h.Format != CellPlanFormat {
		return nil, fmt.Errorf("gridplan: not a cell plan file (format %q)", h.Format)
	}
	if h.Version != PlanVersion {
		return nil, fmt.Errorf("gridplan: unsupported cell plan version %d (have %d)", h.Version, PlanVersion)
	}
	p := &CellPlan{Version: h.Version}
	for {
		var c CellTask
		err := sc.Next(&c)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gridplan: cell plan line %d: %w", sc.Line(), err)
		}
		p.Cells = append(p.Cells, c)
	}
	if len(p.Cells) != h.Tasks {
		return nil, fmt.Errorf("gridplan: cell plan truncated: header says %d cells, file has %d", h.Tasks, len(p.Cells))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteCellPlanFile writes a cell plan to path.
func WriteCellPlanFile(path string, p *CellPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = WriteCellPlan(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("gridplan: writing %s: %w", path, err)
	}
	return nil
}

// ReadCellPlanFile reads a cell plan from path.
func ReadCellPlanFile(path string) (*CellPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadCellPlan(f)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return p, nil
}

// lineScanner decodes one JSON object per line, tolerating blank lines
// and tracking line numbers for diagnostics. A line is at most 4 MB.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &lineScanner{sc: sc}
}

// Next decodes the next non-blank line into v, returning io.EOF at
// the end of input.
func (l *lineScanner) Next(v any) error {
	for l.sc.Scan() {
		l.line++
		b := l.sc.Bytes()
		if len(trimSpace(b)) == 0 {
			continue
		}
		return json.Unmarshal(b, v)
	}
	if err := l.sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// Line reports the current (1-based) line number, for error messages.
func (l *lineScanner) Line() int { return l.line }

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
