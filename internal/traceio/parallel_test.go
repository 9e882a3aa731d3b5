package traceio

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// withProcs runs fn with GOMAXPROCS set to n, the worker count every
// traceio stage takes.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// goroutinesSettle fails t unless the goroutine count falls back to at
// most before.
func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines still running, %d before the call", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCharacteriseRejectsWhatValidateRejects: a load slot with an empty
// stream is what Validate reports, and Characterise returns that error
// instead of dividing by the stream's length.
func TestCharacteriseRejectsWhatValidateRejects(t *testing.T) {
	b := &trace.BodyBuilder{}
	b.Load(1)
	tr := &Trace{Name: "empty", Kernels: []*KernelTrace{{
		KernelMeta: KernelMeta{
			Name:          "empty#0",
			Body:          b.Body(),
			Slots:         1,
			WarpsPerBlock: 1,
			Blocks:        1,
			WarpIters:     []int{1},
		},
		Streams: []*Replay{mustReplay(t, "empty#0/slot0", [][]uint64{{}})},
	}}}
	want := tr.Validate()
	if want == nil {
		t.Fatal("Validate accepts an empty stream on a load slot")
	}
	sig, err := Characterise(tr, CharacteriseOptions{})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Characterise = %+v, %v; want Validate's error %q", sig, err, want)
	}
}

// unalignedAt is a pattern whose listed warps emit a byte-offset
// address from access seq on.
type unalignedAt struct {
	warps []int
	seq   int
}

func (p unalignedAt) Addr(c trace.Ctx, seq int) uint64 {
	addr := uint64(c.GlobalWarp<<20+seq) * trace.LineBytes
	if seq >= p.seq && slices.Contains(p.warps, c.GlobalWarp) {
		addr++
	}
	return addr
}

// ingested is what the trace pipeline makes of one workload.
type ingested struct {
	plain, zipped []byte
	w             *sim.Workload
	sig           Signature
}

func ingest(t *testing.T, w *sim.Workload) ingested {
	t.Helper()
	tr := mustRecord(t, w)
	var out ingested
	var plain, zipped bytes.Buffer
	if err := Write(&plain, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := Write(&zipped, tr, WriteOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}
	out.plain, out.zipped = plain.Bytes(), zipped.Bytes()
	var err error
	if out.w, out.sig, err = ReadWorkload(bytes.NewReader(out.zipped), &CharacteriseOptions{}); err != nil {
		t.Fatal(err)
	}
	fromPlain, sig, err := ReadWorkload(bytes.NewReader(out.plain), &CharacteriseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromPlain, out.w) || sig != out.sig {
		t.Fatal("the plain and the gzipped container ingest differently")
	}
	// Without characterisation the builders count the replays'
	// footprints; with it the footprint scan does, in its own pass.
	uncharacterised, _, err := ReadWorkload(bytes.NewReader(out.plain), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncharacterised, out.w) {
		t.Fatal("the replays' footprints depend on whether the trace is characterised")
	}
	return out
}

// mixedWorkload is miniWorkload (a store slot, a phased slot, jitter)
// with a kernel that loads nothing appended.
func mixedWorkload() *sim.Workload {
	w := miniWorkload()
	b := &trace.BodyBuilder{}
	b.ALU(3)
	b.Store()
	w.Kernels = append(w.Kernels, &trace.Kernel{
		Name:          "mini#2",
		Body:          b.Body(),
		Patterns:      []trace.Pattern{trace.Stream{Region: 25, WrapLines: 32}},
		Iters:         10,
		WarpsPerBlock: 2,
		Blocks:        1,
	})
	return w
}

// TestOutputDoesNotDependOnWorkers: Record, Write and ReadWorkload run
// on GOMAXPROCS workers, and one core and four make the same container
// bytes, plain and gzipped, the same replay arenas and the same
// Signature; a pattern that goes wrong in two chunks of Record's work
// reports the lowest (slot, warp, seq) both times.
func TestOutputDoesNotDependOnWorkers(t *testing.T) {
	cat := workloads.NewCatalogue(workloads.Small)
	for _, name := range []string{"ii", "syr2k", "bfs", "mixed"} {
		t.Run(name, func(t *testing.T) {
			w := mixedWorkload()
			if name != "mixed" {
				w = cat.Must(name)
			}
			if raceEnabled {
				w = &sim.Workload{Name: w.Name, Kernels: w.Kernels[:min(2, len(w.Kernels))]}
			}
			var one, four ingested
			withProcs(1, func() { one = ingest(t, w) })
			withProcs(4, func() { four = ingest(t, w) })
			if !bytes.Equal(one.plain, four.plain) || !bytes.Equal(one.zipped, four.zipped) {
				t.Fatal("the container bytes depend on the worker count")
			}
			if !reflect.DeepEqual(one.w, four.w) {
				t.Fatal("the replay arenas depend on the worker count")
			}
			if !reflect.DeepEqual(one.sig, four.sig) {
				t.Fatalf("the Signature depends on the worker count:\n1 worker:  %+v\n4 workers: %+v", one.sig, four.sig)
			}
		})
	}

	t.Run("unaligned", func(t *testing.T) {
		// 64 warps: four workers deal them out in 16 chunks of 4, so
		// warps 13 and 60 fail in chunks 3 and 15.
		w := patternWorkload(t, "odd", unalignedAt{warps: []int{13, 60}, seq: 5}, 1, 8, 4, 16)
		var errs []string
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() {
				_, err := Record(w)
				if err == nil {
					t.Fatalf("%d workers: an unaligned address was recorded", procs)
				}
				errs = append(errs, err.Error())
			})
		}
		if errs[0] != errs[1] {
			t.Fatalf("the error depends on the worker count:\n1 worker:  %s\n4 workers: %s", errs[0], errs[1])
		}
		if !strings.Contains(errs[0], "slot 0 warp 13 seq 5:") {
			t.Fatalf("error %q does not name the first unaligned access", errs[0])
		}
	})
}

// TestReadWorkloadErrorStopsWorkers: a container that is corrupt in
// its last kernel, after the first has gone to the characteriser's
// workers, fails ReadWorkload with the Scanner's error, and no worker
// outlives the call.
func TestReadWorkloadErrorStopsWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, mustRecord(t, miniWorkload()), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Cut inside the last kernel's streams: the trailer is 8 bytes.
	data := buf.Bytes()[:buf.Len()-len(formatTrailer)-12]
	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sc.Next(); !ok {
			break
		}
	}
	want := sc.Err()
	if want == nil || !strings.Contains(want.Error(), "kernel 1 ") {
		t.Fatalf("the cut is not in the last kernel: scanner error %v", want)
	}
	withProcs(4, func() {
		before := runtime.NumGoroutine()
		_, _, err := ReadWorkload(bytes.NewReader(data), &CharacteriseOptions{})
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("ReadWorkload error %v, want the Scanner's %q", err, want)
		}
		goroutinesSettle(t, before)
	})
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errWriteFailed = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errWriteFailed
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteErrorStopsCompressor: a write error reaches Write's caller,
// plain or gzipped, whether the writer fails at once or half way, and
// the compressor goroutine does not outlive the call.
func TestWriteErrorStopsCompressor(t *testing.T) {
	tr := syntheticTrace(t, 8, 256, 64) // several chunks
	withProcs(4, func() {
		for _, gz := range []bool{false, true} {
			size := len(encode(t, tr, gz))
			for _, accept := range []int{0, size / 2, size - 1} {
				before := runtime.NumGoroutine()
				err := Write(&failingWriter{n: accept}, tr, WriteOptions{Gzip: gz})
				if !errors.Is(err, errWriteFailed) {
					t.Fatalf("gzip=%v, failing after %d bytes: Write returned %v", gz, accept, err)
				}
				goroutinesSettle(t, before)
			}
		}
	})
}
