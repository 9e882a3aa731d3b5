package gridplan

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"poise/internal/atomicfile"
)

// The JSONL container: one header object on the first line, then one
// record per line. JSONL rather than a single JSON document so workers
// can stream arbitrarily large plans and a truncated transfer is
// detected by the header's count, not by a silent short read. This is
// its one implementation: the three file kinds below, the fleet's wire
// protocol and the decision service's /decide replies all write through
// WriteLines and read through Lines, a wire message's counted body
// through ReadCounted.

const (
	// ProfilePlanFormat tags profile-sweep plan files; exported, like
	// CellPlanFormat, because fleet workers dispatch executors on it.
	ProfilePlanFormat = "poiseplan"
	// CellPlanFormat tags experiment-cell plan files.
	CellPlanFormat = "poisecellplan"
	measFormat     = "poiseshard"

	// maxLine bounds one line of a container: a format rule, and the
	// most a reader buffers before it gives up on a line.
	maxLine = 4 << 20
)

// WriteLines writes header and then every record as one JSON line each.
func WriteLines[R any](w io.Writer, header any, records []R) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Lines decodes a JSONL stream one line at a time. It sits on a
// bufio.Reader it hands back through Rest, so a caller can read a
// header line and pass the bytes after it on untouched.
type Lines struct {
	br   *bufio.Reader
	line int // 1-based number of the line read last
}

// NewLines reads lines from r.
func NewLines(r io.Reader) *Lines { return &Lines{br: bufio.NewReader(r)} }

// read returns the next line, blank or not; the last line need not end
// in a newline. io.EOF means the stream ended before it. A line longer
// than maxLine is refused as soon as the reader has seen that much of
// it, so a stream without newlines costs maxLine, not its length.
func (l *Lines) read() ([]byte, error) {
	var b []byte
	for {
		frag, err := l.br.ReadSlice('\n')
		if len(b)+len(frag) > maxLine {
			l.line++
			return nil, fmt.Errorf("line exceeds the %d-byte bound", maxLine)
		}
		b = append(b, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && (err != io.EOF || len(b) == 0) {
			return nil, err
		}
		l.line++
		return b, nil
	}
}

// Next decodes the next non-blank line into v, returning io.EOF at the
// end of input: the tolerant reading files get.
func (l *Lines) Next(v any) error {
	for {
		b, err := l.read()
		if err != nil {
			return err
		}
		if len(bytes.Trim(b, " \t\r\n")) > 0 {
			return json.Unmarshal(b, v)
		}
	}
}

// Exact decodes the very next line into v: a blank line is an error and
// so is the end of input (io.ErrUnexpectedEOF). It is the strict reading
// a wire message gets, whose header says how many lines follow.
func (l *Lines) Exact(v any) error {
	b, err := l.read()
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// Rest returns everything after the lines read so far.
func (l *Lines) Rest() io.Reader { return l.br }

// ReadCounted reads the count records a wire message's header announced:
// exactly count lines, each through Exact, so a blank line, a short body
// or a negative count is an error.
func ReadCounted[T any](l *Lines, count int) ([]T, error) {
	if count < 0 {
		return nil, fmt.Errorf("negative count %d", count)
	}
	var out []T
	for len(out) < count {
		var rec T
		if err := l.Exact(&rec); err != nil {
			return nil, fmt.Errorf("line %d/%d: %w", len(out)+1, count, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// A header is a container's first line; declares reports the three
// things every kind's header carries, under whatever names it gives
// them.
type header interface {
	declares() (format string, version, count int)
}

type planHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tasks   int    `json:"tasks"`
}

func (h planHeader) declares() (string, int, int) { return h.Format, h.Version, h.Tasks }

// measHeader writes "shard":0 for round 0: no omitempty, and not to be
// merged with planHeader.
type measHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Shard   int    `json:"shard"`
	Of      int    `json:"of"`
	Count   int    `json:"count"`
}

func (h measHeader) declares() (string, int, int) { return h.Format, h.Version, h.Count }

// readContainer parses one container file kind: a header H carrying
// wantFormat, then records R to the end of input, as many as the header
// declared. noun and records are the words its errors use.
func readContainer[H header, R any](r io.Reader, wantFormat, noun, records string) ([]R, error) {
	l := NewLines(r)
	var h H
	if err := l.Next(&h); err != nil {
		return nil, fmt.Errorf("gridplan: %s header: %w", noun, err)
	}
	format, version, count := h.declares()
	if format != wantFormat {
		return nil, fmt.Errorf("gridplan: not a %s file (format %q)", noun, format)
	}
	if version != PlanVersion {
		return nil, fmt.Errorf("gridplan: unsupported %s version %d (have %d)", noun, version, PlanVersion)
	}
	var recs []R
	for {
		var rec R
		err := l.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gridplan: %s line %d: %w", noun, l.line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != count {
		return nil, fmt.Errorf("gridplan: %s truncated: header says %d %s, file has %d", noun, count, records, len(recs))
	}
	return recs, nil
}

// versionOr is the version a plan built in memory is written with.
func versionOr(v int) int {
	if v == 0 {
		return PlanVersion
	}
	return v
}

// WritePlan serialises a plan as JSONL.
func WritePlan(w io.Writer, p *Plan) error {
	return WriteLines(w, planHeader{Format: ProfilePlanFormat, Version: versionOr(p.Version), Tasks: len(p.Tasks)}, p.Tasks)
}

// ReadPlan parses a JSONL plan, validating the header, the task count
// and the task invariants.
func ReadPlan(r io.Reader) (*Plan, error) {
	tasks, err := readContainer[planHeader, Task](r, ProfilePlanFormat, "plan", "tasks")
	if err != nil {
		return nil, err
	}
	p := &Plan{Version: PlanVersion, Tasks: tasks}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteCellPlan serialises an experiment-cell plan as JSONL.
func WriteCellPlan(w io.Writer, p *CellPlan) error {
	return WriteLines(w, planHeader{Format: CellPlanFormat, Version: versionOr(p.Version), Tasks: len(p.Cells)}, p.Cells)
}

// ReadCellPlan parses a JSONL cell plan, validating the header, the
// cell count and the cell invariants.
func ReadCellPlan(r io.Reader) (*CellPlan, error) {
	cells, err := readContainer[planHeader, CellTask](r, CellPlanFormat, "cell plan", "cells")
	if err != nil {
		return nil, err
	}
	p := &CellPlan{Version: PlanVersion, Cells: cells}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteMeasurements serialises one measurement set as JSONL — a
// refinement round's, in the profile store. shard/of record which part
// of what the file is (round r of r+1 so far); Merge does not trust
// them, they are for operators and error messages.
func WriteMeasurements(w io.Writer, shard, of int, ms []Measurement) error {
	return WriteLines(w, measHeader{Format: measFormat, Version: PlanVersion, Shard: shard, Of: of, Count: len(ms)}, ms)
}

// ReadMeasurements parses a measurement file. Duplicate keys are legal
// here and an error at Merge.
func ReadMeasurements(r io.Reader) ([]Measurement, error) {
	return readContainer[measHeader, Measurement](r, measFormat, "shard", "measurements")
}

// writeFile replaces path with the container write produces, atomically:
// a resumed sweep reads round files back (profile.Store.LoadRounds), and
// a torn one would cost it every round from there on.
func writeFile(path string, write func(io.Writer) error) error {
	if err := atomicfile.Write(path, write); err != nil {
		return fmt.Errorf("gridplan: writing %s: %w", path, err)
	}
	return nil
}

// readFile parses the container at path with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (v T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	if v, err = read(f); err != nil {
		err = fmt.Errorf("%w (reading %s)", err, path)
	}
	return v, err
}

// WritePlanFile writes a plan to path.
func WritePlanFile(path string, p *Plan) error {
	return writeFile(path, func(w io.Writer) error { return WritePlan(w, p) })
}

// ReadPlanFile reads a plan from path.
func ReadPlanFile(path string) (*Plan, error) { return readFile(path, ReadPlan) }

// WriteMeasurementsFile writes a measurement file to path.
func WriteMeasurementsFile(path string, shard, of int, ms []Measurement) error {
	return writeFile(path, func(w io.Writer) error { return WriteMeasurements(w, shard, of, ms) })
}

// ReadMeasurementsFile reads a measurement file from path.
func ReadMeasurementsFile(path string) ([]Measurement, error) {
	return readFile(path, ReadMeasurements)
}
