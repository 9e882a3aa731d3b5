package gridplan

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenContainersByteIdentical: the three files under testdata
// were written by the parent of the commit that folded the three
// codecs into one (WritePlanFile, WriteCellPlanFile and
// WriteMeasurementsFile of round 0, so the header's "shard":0 is on
// disk). Reading each and writing it again must give the same bytes.
func TestGoldenContainersByteIdentical(t *testing.T) {
	// Each kind reads the golden bytes, checks a value or two, and writes
	// what it read to out (through its …File writer where it has one).
	rewrite := map[string]func(t *testing.T, golden []byte, out string) error{
		"golden.poiseplan.jsonl": func(t *testing.T, golden []byte, out string) error {
			p, err := ReadPlan(bytes.NewReader(golden))
			if err != nil {
				return err
			}
			if len(p.Tasks) != 3 || p.Tasks[0].Seed != 7 {
				t.Errorf("read back %+v", p.Tasks)
			}
			if err := WritePlanFile(out, p); err != nil {
				return err
			}
			_, err = ReadPlanFile(out)
			return err
		},
		"golden.poisecellplan.jsonl": func(t *testing.T, golden []byte, out string) error {
			p, err := ReadCellPlan(bytes.NewReader(golden))
			if err != nil {
				return err
			}
			if len(p.Cells) != 3 || p.Cells[2].Ord != 4 {
				t.Errorf("read back %+v", p.Cells)
			}
			return writeFile(out, func(w io.Writer) error { return WriteCellPlan(w, p) })
		},
		"golden.poiseshard.jsonl": func(t *testing.T, golden []byte, out string) error {
			if !bytes.Contains(golden, []byte(`"shard":0,`)) {
				t.Error("the golden round file lost its \"shard\":0")
			}
			ms, err := ReadMeasurements(bytes.NewReader(golden))
			if err != nil {
				return err
			}
			if len(ms) != 3 || ms[1].Cycles != 1<<40 {
				t.Errorf("read back %+v", ms)
			}
			if err := WriteMeasurementsFile(out, 0, 1, ms); err != nil {
				return err
			}
			_, err = ReadMeasurementsFile(out)
			return err
		},
	}
	for name, again := range rewrite {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), name)
		if err := again(t, golden, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, golden) {
			t.Errorf("%s: rewritten bytes differ (%v):\n got %s\nwant %s", name, err, got, golden)
		}
	}
}

// TestLinesTolerantAndExact: Next skips blank lines and reports EOF;
// Exact takes the very next line or fails; Rest hands on what follows
// the lines read, byte for byte; a line over the bound is refused.
func TestLinesTolerantAndExact(t *testing.T) {
	var v struct{ A int }
	l := NewLines(strings.NewReader("\n  \r\n{\"A\":1}\n\n{\"A\":2}"))
	for want := 1; want <= 2; want++ {
		if err := l.Next(&v); err != nil || v.A != want {
			t.Fatalf("Next = %v, %+v, want A=%d", err, v, want)
		}
	}
	if l.line != 5 {
		t.Fatalf("line %d after five lines", l.line)
	}
	if err := l.Next(&v); err != io.EOF {
		t.Fatalf("Next at the end = %v, want io.EOF", err)
	}

	l = NewLines(strings.NewReader("{\"A\":3}\n\n{\"A\":4}\nraw tail\n\nmore"))
	if err := l.Exact(&v); err != nil || v.A != 3 {
		t.Fatalf("Exact = %v, %+v", err, v)
	}
	if err := l.Exact(&v); err == nil {
		t.Fatal("Exact accepted a blank line")
	}
	if err := l.Exact(&v); err != nil || v.A != 4 {
		t.Fatalf("Exact after the blank line = %v, %+v", err, v)
	}
	if rest, err := io.ReadAll(l.Rest()); err != nil || string(rest) != "raw tail\n\nmore" {
		t.Fatalf("Rest = %q, %v", rest, err)
	}
	if err := l.Exact(&v); err != io.ErrUnexpectedEOF {
		t.Fatalf("Exact at the end = %v, want io.ErrUnexpectedEOF", err)
	}

	long := `{"A":5,"pad":"` + strings.Repeat("x", maxLine) + `"}` + "\n{\"A\":6}\n"
	l = NewLines(strings.NewReader(long))
	if err := l.Next(&v); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("a %d-byte line: %v", len(long), err)
	}

	// ReadCounted takes exactly the count a header announced, each line
	// through Exact.
	for _, c := range []struct {
		name, body string
		count      int
		err        string // "" = reads count records
	}{
		{"exact", "{\"A\":1}\n{\"A\":2}\ntail", 2, ""},
		{"none", "", 0, ""},
		{"truncated", "{\"A\":1}\n", 2, "line 2/2: unexpected EOF"},
		{"blank line", "{\"A\":1}\n\n{\"A\":2}\n", 2, "line 2/2: unexpected end of JSON input"},
		{"negative count", "{\"A\":1}\n", -1, "negative count -1"},
	} {
		recs, err := ReadCounted[struct{ A int }](NewLines(strings.NewReader(c.body)), c.count)
		switch {
		case c.err == "" && (err != nil || len(recs) != c.count || (c.count > 0 && recs[c.count-1].A != c.count)):
			t.Errorf("ReadCounted %s: %+v, %v", c.name, recs, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ReadCounted %s: %+v, error %v, want one containing %q", c.name, recs, err, c.err)
		}
	}
}

// endless is a stream of one line that never ends, counting the bytes
// read from it.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.n += len(p)
	return len(p), nil
}

// TestLinesStopAtTheBound: a line with no newline in sight is refused
// once the reader has taken about maxLine bytes of it, not buffered
// until the stream ends (which, on a POST body, may be never).
func TestLinesStopAtTheBound(t *testing.T) {
	src := &endless{}
	var v struct{ A int }
	if err := NewLines(src).Next(&v); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("an endless line: %v", err)
	}
	if buf := 4096; src.n > maxLine+buf {
		t.Fatalf("read %d bytes of an endless line, want at most maxLine + one %d-byte buffer (%d)", src.n, buf, maxLine+buf)
	}
}
