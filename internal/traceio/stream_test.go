package traceio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"poise/internal/config"
	"poise/internal/sim"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// collectScanner rebuilds a whole Trace by draining a Scanner over r —
// an independent re-implementation of read's loop that collects
// per-warp slices and builds each slot with NewReplay at the end, so
// the equivalence tests compare two genuinely separate paths rather
// than read against itself. It checks in read's order: every kernel's
// metadata first, then each record as it arrives.
func collectScanner(r io.Reader) (*Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: sc.Name(), MemorySensitive: sc.MemorySensitive()}
	var warps [][][][]uint64 // [kernel][slot][warp]
	for _, m := range sc.Kernels() {
		t.Kernels = append(t.Kernels, &KernelTrace{KernelMeta: m})
		slots := make([][][]uint64, m.Slots)
		for s := range slots {
			slots[s] = make([][]uint64, m.TotalWarps())
		}
		warps = append(warps, slots)
	}
	used, err := t.validateMeta()
	if err != nil {
		return nil, err
	}
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		if len(rec.Addrs) == 0 && used[rec.Kernel][rec.Slot] {
			return nil, t.kernelErr(rec.Kernel, errEmptyStream(rec.Slot, rec.Warp))
		}
		stream := make([]uint64, len(rec.Addrs))
		copy(stream, rec.Addrs)
		warps[rec.Kernel][rec.Slot][rec.Warp] = stream
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for ki, kt := range t.Kernels {
		kt.Streams = make([]*Replay, kt.Slots)
		for s := range kt.Streams {
			if kt.Streams[s], err = NewReplay(slotName(kt.Name, s), warps[ki][s]); err != nil {
				return nil, err
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// TestScannerMatchesReadOnFixtures pins the streaming contract on every
// committed testdata fixture: Read and collect(Scanner) must agree on
// the error-vs-success verdict, and on success produce DeepEqual
// traces. Non-container fixtures (the Accel-Sim text dumps) are
// rejected identically by both paths.
func TestScannerMatchesReadOnFixtures(t *testing.T) {
	fixtures, err := filepath.Glob("testdata/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no testdata fixtures")
	}
	for _, path := range fixtures {
		if fi, err := os.Stat(path); err != nil || fi.IsDir() {
			continue
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			whole, readErr := Read(bytes.NewReader(data))
			streamed, scanErr := collectScanner(bytes.NewReader(data))
			if (readErr == nil) != (scanErr == nil) {
				t.Fatalf("verdicts diverge: Read err=%v, Scanner err=%v", readErr, scanErr)
			}
			if readErr != nil {
				if readErr.Error() != scanErr.Error() {
					t.Fatalf("error texts diverge:\nRead:    %v\nScanner: %v", readErr, scanErr)
				}
				return
			}
			if !reflect.DeepEqual(whole, streamed) {
				t.Fatalf("collect(Scanner) differs from Read on %s", path)
			}
		})
	}
}

// TestScannerMatchesReadRecorded covers the shapes the committed
// fixtures cannot: a freshly recorded multi-kernel workload with
// jittered per-warp iteration counts, through both the plain and
// gzipped container encodings.
func TestScannerMatchesReadRecorded(t *testing.T) {
	tr := mustRecord(t, miniWorkload())
	for _, gz := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, tr, WriteOptions{Gzip: gz}); err != nil {
			t.Fatal(err)
		}
		whole, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := collectScanner(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(whole, streamed) {
			t.Fatalf("collect(Scanner) differs from Read (gzip=%v)", gz)
		}
	}
}

// TestReadWorkloadMatchesReadPath is the stream-replay guarantee on
// real catalogue workloads: ReadWorkload's flat-arena workload and
// single-pass Signature must be DeepEqual to the materialise-then-
// convert path (Read → Workload → Characterise). Two catalogue
// workloads cover the deterministic sweeps (ii) and the stochastic
// irregular patterns with iteration jitter (bfs).
func TestReadWorkloadMatchesReadPath(t *testing.T) {
	cat := workloads.NewCatalogue(workloads.Small)
	names := []string{"ii", "bfs"}
	if raceEnabled {
		names = []string{"ii"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := cat.Must(name)
			if raceEnabled {
				w = &sim.Workload{Name: w.Name, Kernels: w.Kernels[:1],
					MemorySensitive: w.MemorySensitive}
			}
			tr := mustRecord(t, w)
			var buf bytes.Buffer
			if err := Write(&buf, tr, WriteOptions{Gzip: true}); err != nil {
				t.Fatal(err)
			}

			parsed, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			wantW, err := parsed.Workload()
			if err != nil {
				t.Fatal(err)
			}
			wantSig := mustCharacterise(t, parsed, CharacteriseOptions{})

			gotW, gotSig, err := ReadWorkload(bytes.NewReader(buf.Bytes()), &CharacteriseOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantW, gotW) {
				t.Fatalf("streamed workload differs from Read path")
			}
			if !reflect.DeepEqual(wantSig, gotSig) {
				t.Fatalf("streamed signature differs:\nRead path: %+v\nstreamed:  %+v", wantSig, gotSig)
			}
		})
	}
}

// TestReadWorkloadReservesArenas: streaming ingest sizes a slot's arena
// from its first stream and the declared warp count, so a slot whose
// warps stream alike is never regrown — and a ragged one, whose first
// stream is its shortest, still ingests to the same replay.
func TestReadWorkloadReservesArenas(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		tr := syntheticTrace(t, 8, 64, 48)
		if ragged {
			rep := tr.Kernels[0].Streams[0]
			warps := warpsOf(rep)
			warps[0] = warps[0][:3]
			tr.Kernels[0].Streams[0] = mustReplay(t, rep.name, warps)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		w, _, err := ReadWorkload(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Kernels[0].Patterns[0].(*Replay)
		want, err := NewReplay(got.name, warpsOf(tr.Kernels[0].Streams[0]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("ragged %v: streamed replay differs from NewReplay's", ragged)
		}
		if !ragged && cap(got.arena) != len(got.arena) {
			t.Fatalf("arena of %d addresses has capacity %d: it was grown, not reserved", len(got.arena), cap(got.arena))
		}
	}
}

// TestStreamReplayBitIdentical closes the loop through the simulator:
// a workload ingested by ReadWorkload must replay to exactly the live
// run's metrics, like the Read-path replay does.
func TestStreamReplayBitIdentical(t *testing.T) {
	cfg := config.Default().Scale(1)
	w := miniWorkload()
	live, err := sim.RunWorkload(cfg, w, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, mustRecord(t, w), WriteOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}
	replayW, _, err := ReadWorkload(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sim.RunWorkload(cfg, replayW, sim.GTO{}, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("streamed replay differs from live run:\nlive:     %+v\nreplayed: %+v",
			summary(live), summary(replayed))
	}
}

// syntheticTrace builds a single-kernel container with warps×iters
// line-aligned addresses — a controlled record count for the alloc
// bound and the benchmarks.
func syntheticTrace(t testing.TB, warpsPerBlock, blocks, iters int) *Trace {
	t.Helper()
	b := &trace.BodyBuilder{}
	b.Load(1)
	b.ALU(2)
	total := warpsPerBlock * blocks
	kt := &KernelTrace{
		KernelMeta: KernelMeta{
			Name:          "synth#0",
			Body:          b.Body(),
			Slots:         1,
			WarpsPerBlock: warpsPerBlock,
			Blocks:        blocks,
			WarpIters:     make([]int, total),
		},
	}
	warps := make([][]uint64, total)
	for g := range warps {
		kt.WarpIters[g] = iters
		stream := make([]uint64, iters)
		for j := range stream {
			stream[j] = uint64((g*7+j)%4096) * trace.LineBytes
		}
		warps[g] = stream
	}
	kt.Streams = []*Replay{mustReplay(t, slotName(kt.Name, 0), warps)}
	tr := &Trace{Name: "synth", MemorySensitive: true, Kernels: []*KernelTrace{kt}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestScannerAllocsBounded asserts the streaming contract that matters
// for huge traces: draining a container allocates O(header + largest
// record), not O(records). The synthetic trace below carries 2048
// per-warp records; a scan that allocated per record would show up
// three orders of magnitude over the bound.
func TestScannerAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	tr := syntheticTrace(t, 8, 256, 16)
	var buf bytes.Buffer
	if err := Write(&buf, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	records := 0
	allocs := testing.AllocsPerRun(5, func() {
		sc, err := NewScanner(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		records = 0
		for {
			_, ok := sc.Next()
			if !ok {
				break
			}
			records++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if want := 8 * 256; records != want {
		t.Fatalf("scanned %d records, want %d", records, want)
	}
	if allocs > 100 {
		t.Fatalf("scan of %d records allocated %.0f times; streaming must stay O(records-in-flight)",
			records, allocs)
	}
}

// FuzzScanner fuzzes the streaming reader's decoder against itself
// fed one byte per Read: on arbitrary bytes — truncations mid-record,
// corrupt varints, geometry the streams cannot satisfy — neither may
// panic, and the in-buffer decode (whole varints straight from the
// reader's buffer) must reach exactly the verdict, error text and
// records of the fallback that every straddling varint takes. The
// seeds are a valid container, plain and gzipped, truncations and a
// poisesnap container, plain and gzipped (the other format of the
// shared opener, which the trace readers refuse as foreign); the corpus
// in testdata/fuzz/FuzzScanner adds committed regressions: systematic
// truncations, a flipped stream byte, and an Accel-Sim per-lane mask
// dump (which the container readers must cleanly reject as foreign).
func FuzzScanner(f *testing.F) {
	tr, err := Record(miniWorkload())
	if err != nil {
		f.Fatal(err)
	}
	var plain, gz bytes.Buffer
	if err := Write(&plain, tr, WriteOptions{}); err != nil {
		f.Fatal(err)
	}
	if err := Write(&gz, tr, WriteOptions{Gzip: true}); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add(plain.Bytes()[:len(plain.Bytes())/2])
	f.Add(plain.Bytes()[:len(plain.Bytes())-3])
	snapPlain, snapZipped := poisesnapContainers(f)
	f.Add(snapPlain)
	f.Add(snapZipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, fastErr := Read(bytes.NewReader(data))
		slow, slowErr := collectScanner(iotest.OneByteReader(bytes.NewReader(data)))
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("verdicts diverge: in-buffer err=%v, one-byte err=%v", fastErr, slowErr)
		}
		if fastErr != nil {
			if fastErr.Error() != slowErr.Error() {
				t.Fatalf("error texts diverge:\nin-buffer: %v\none-byte:  %v", fastErr, slowErr)
			}
			return
		}
		if !reflect.DeepEqual(whole, slow) {
			t.Fatal("the one-byte decode differs from the in-buffer decode")
		}
	})
}
