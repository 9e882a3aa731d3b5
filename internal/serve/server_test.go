package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"poise/internal/atomicfile"
	"poise/internal/config"
	"poise/internal/poise"
	"poise/internal/profile"
	"poise/internal/snap"
	"poise/internal/testutil"
	"poise/internal/traceio"
	"poise/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func TestServeDecideEndpoint(t *testing.T) {
	w := testWeights()
	s, c := newTestServer(t, Config{Weights: w})
	reqs := []DecideRequest{
		{Key: "k1", X: testVector(1), MaxN: 24},
		{Key: "k1", X: testVector(1), MaxN: 24},
		{Key: "", X: testVector(2)}, // MaxN 0: server default (24)
	}
	replies, err := c.Decide(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3", len(replies))
	}
	for i, req := range reqs {
		maxN := req.MaxN
		if maxN == 0 {
			maxN = 24
		}
		wantN, wantP := w.PredictTuple(req.X, maxN)
		if replies[i].N != wantN || replies[i].P != wantP {
			t.Fatalf("reply %d = (%d,%d), want (%d,%d)", i, replies[i].N, replies[i].P, wantN, wantP)
		}
		if replies[i].Version != 1 {
			t.Fatalf("reply %d version = %d, want 1", i, replies[i].Version)
		}
	}
	if replies[0].Cached || !replies[1].Cached || replies[2].Cached {
		t.Fatalf("cached flags = %v/%v/%v, want false/true/false",
			replies[0].Cached, replies[1].Cached, replies[2].Cached)
	}
	st := s.Stats()
	if st.Decisions != 3 || st.CacheHits != 1 || st.CacheMisses != 2 || st.Tables != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.P99LatencyNS <= 0 {
		t.Fatal("latency histogram never observed anything")
	}
}

func TestServeDecideRejectsBadBatch(t *testing.T) {
	_, c := newTestServer(t, Config{Weights: testWeights()})
	for name, body := range map[string]string{
		"empty":    "",
		"bad-json": "{\"x\": not json}\n",
	} {
		resp, err := c.HTTP.Post(c.Base+"/decide", "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// endlessLines is a request body that repeats line forever, counting
// what is read of it.
type endlessLines struct {
	line []byte
	n    int
}

func (e *endlessLines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.line[(e.n+i)%len(e.line)]
	}
	e.n += len(p)
	return len(p), nil
}

// TestServeDecideBoundsItsBody: a /decide batch that never ends, one
// well-formed request line after another, is refused with 413 once the
// service has read MaxBody of it, as an /ingest body is.
func TestServeDecideBoundsItsBody(t *testing.T) {
	const maxBody = 256 << 10
	s, _ := newTestServer(t, Config{Weights: testWeights(), MaxBody: maxBody})
	line, err := json.Marshal(DecideRequest{Key: "k", X: testVector(1)})
	if err != nil {
		t.Fatal(err)
	}
	src := &endlessLines{line: append(line, '\n')}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/decide", src))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("an endless batch: status %d, want 413", rec.Code)
	}
	if most := maxBody + 64<<10; src.n > most {
		t.Errorf("read %d bytes of an endless batch, want at most %d", src.n, most)
	}
}

// tableProfile mirrors the profile package's table fixture: distinct
// Static-Best, SWL and scored optima.
func tableProfile(kernel string) *profile.Profile {
	pr := &profile.Profile{
		Kernel:   kernel,
		MaxN:     4,
		Baseline: profile.Point{N: 4, P: 4, IPC: 1, Speedup: 1},
	}
	for n := 1; n <= 4; n++ {
		for p := 1; p <= n; p++ {
			sp := 1.0
			switch {
			case n == 4 && p == 1:
				sp = 1.5
			case n == 2 && p == 2:
				sp = 1.2
			case n == 3 && p == 1:
				sp = 1.4
			}
			pr.Points = append(pr.Points, profile.Point{N: n, P: p, IPC: sp, Speedup: sp})
		}
	}
	return pr
}

// saveTableProfiles writes tableProfile of each kernel into dir, where
// profile.BestTable reads every profile JSON whatever its name.
func saveTableProfiles(t *testing.T, dir string, kernels ...string) {
	t.Helper()
	for _, k := range kernels {
		if err := atomicfile.SaveJSON(filepath.Join(dir, k+".json"), tableProfile(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeTableMatchesBestTable pins the byte-identity contract: GET
// /table is exactly profile.BestTable, which is exactly what `poisesim
// -best` prints (CI diffs the two end to end).
func TestServeTableMatchesBestTable(t *testing.T) {
	dir := t.TempDir()
	saveTableProfiles(t, dir, "bk", "ak")
	_, c := newTestServer(t, Config{Weights: testWeights(), ProfileDir: dir})
	got, err := c.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := profile.BestTable(dir, config.DefaultPoise())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("/table drifted from profile.BestTable:\n%q\n%q", got, want)
	}
}

func TestServeTableUnconfigured(t *testing.T) {
	_, c := newTestServer(t, Config{Weights: testWeights()})
	if _, err := c.Table(context.Background()); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unconfigured /table: %v, want 404", err)
	}
}

// TestServeTableIncludesIngestedKeys pins the /ingest → /table path:
// profile-backed rows stay byte-identical to profile.BestTable (the
// `poisesim -best` contract), and kernels that arrived via /ingest get
// appended rows decided by the active weights. The rows survive a
// service restart via the sample log.
func TestServeTableIncludesIngestedKeys(t *testing.T) {
	dir := t.TempDir()
	saveTableProfiles(t, dir, "bk")
	logPath := filepath.Join(t.TempDir(), "samples.jsonl")
	w := testWeights()
	cfg := Config{Weights: w, ProfileDir: dir, SampleLog: logPath, Retrain: RetrainOptions{Min: 1 << 20}}
	s, c := newTestServer(t, cfg)

	rec := synthRecord(3, 4)
	if _, err := c.IngestRecord(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	got, err := c.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	profTable, err := profile.BestTable(dir, config.DefaultPoise())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, profTable) {
		t.Fatalf("/table no longer starts with the profile-backed rows:\n%q", got)
	}
	// synthRecord's samples share one kernel name, so exactly one
	// memoised row follows, decided by the boot weights (Min is high
	// enough that no retrain fired).
	last := rec.Samples[len(rec.Samples)-1]
	wantN, wantP := w.PredictTuple(last.X, last.MaxN)
	wantRow := fmt.Sprintf("%-14s model (%2d,%2d) weights v1\n", "synth", wantN, wantP)
	if got != profTable+wantRow {
		t.Fatalf("/table = %q, want %q", got, profTable+wantRow)
	}

	// A restarted service replays the sample log and re-registers the
	// ingested kernels: same rows, no re-ingest needed.
	s.Close()
	_, c2 := newTestServer(t, cfg)
	got2, err := c2.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got2 != got {
		t.Fatalf("restarted /table = %q, want %q", got2, got)
	}

	// With no profile store at all, ingested rows alone serve /table.
	_, c3 := newTestServer(t, Config{Weights: w, Retrain: RetrainOptions{Min: 1 << 20}})
	if _, err := c3.IngestRecord(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	got3, err := c3.Table(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got3 != wantRow {
		t.Fatalf("profile-less /table = %q, want %q", got3, wantRow)
	}
}

// TestServeTableFollowsReingest: a kernel ingested again with other
// features gets the row its new features predict, with no retrain in
// between (Min is far above what arrives), which a memo keyed by the
// kernel's name would not give.
func TestServeTableFollowsReingest(t *testing.T) {
	w := testWeights()
	_, c := newTestServer(t, Config{Weights: w, Retrain: RetrainOptions{Min: 1 << 20}})
	row := func(rec Record) string {
		last := rec.Samples[len(rec.Samples)-1]
		n, p := w.PredictTuple(last.X, last.MaxN)
		return fmt.Sprintf("%-14s model (%2d,%2d) weights v1\n", "synth", n, p)
	}
	first := synthRecord(3, 4)
	// The first seed whose features predict another tuple under the
	// same workload and kernel name.
	var second Record
	for seed := 4; seed < 64 && second.Samples == nil; seed++ {
		if r := synthRecord(seed, 4); row(r) != row(first) {
			second = r
		}
	}
	if second.Samples == nil {
		t.Fatal("no synthRecord seed predicts another tuple than seed 3's: pick another pair")
	}
	for i, rec := range []Record{first, second} {
		if _, err := c.IngestRecord(context.Background(), rec); err != nil {
			t.Fatal(err)
		}
		got, err := c.Table(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := row(rec); got != want {
			t.Fatalf("/table after ingest %d = %q, want %q", i+1, got, want)
		}
	}
}

func TestServeIngestRecord(t *testing.T) {
	s, c := newTestServer(t, Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 8}})
	rep, err := c.IngestRecord(context.Background(), synthRecord(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	// The ingest crossed Min, so its own reply reports the retrain.
	if rep.Workload != "synth" || rep.Samples != 9 || rep.Records != 1 || rep.TotalSamples != 9 || rep.WeightsVersion != 2 {
		t.Fatalf("ingest reply = %+v", rep)
	}
	st := s.Stats()
	if st.Retrains != 1 || st.RetrainErrors != 0 || st.WeightsVersion != 2 {
		t.Fatalf("post-ingest stats = %+v", st)
	}
	// Garbage that is neither trace nor record is a clean 400.
	resp, err := c.HTTP.Post(c.Base+"/ingest", "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ingest: status %d, want 400", resp.StatusCode)
	}
}

// TestServeIngestRawTrace drives the full online pipeline: record a
// real workload to the poisetrace container, upload the raw bytes, and
// watch the service characterise, profile and log it — the online
// analogue of one offline training iteration.
func TestServeIngestRawTrace(t *testing.T) {
	wl := workloads.NewCatalogue(workloads.Small).Must("ii")
	tr, err := traceio.Record(wl)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := traceio.Write(&raw, tr, traceio.WriteOptions{Gzip: true}); err != nil {
		t.Fatal(err)
	}

	s, c := newTestServer(t, Config{
		Weights:    testWeights(),
		SimCfg:     config.Default().Scale(1),
		Sweep:      profile.SweepOptions{StepN: 12, StepP: 12},
		SweepCache: t.TempDir(),
	})
	rep, err := c.IngestTrace(context.Background(), raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "ii" {
		t.Fatalf("ingested workload = %q, want ii", rep.Workload)
	}
	if rep.Records != 1 {
		t.Fatalf("records = %d, want 1", rep.Records)
	}
	st := s.Stats()
	if st.IngestedRecords != 1 {
		t.Fatalf("stats after trace ingest = %+v", st)
	}
	if st.RetrainErrors != 0 {
		t.Fatalf("retrain errors after trace ingest: %+v", st)
	}
}

// TestServeIngestSweepsEachTracesContent: two different traces
// recorded under one workload name, ingested into one SweepCache, each
// yield the samples a service with a fresh cache yields for it. The
// second trace's Eq. 12 targets come from its own sweep, never from
// the profile the first left in the cache under the same name.
func TestServeIngestSweepsEachTracesContent(t *testing.T) {
	record := func(lines int) []byte {
		t.Helper()
		tr, err := traceio.Record(testutil.Workload("k", testutil.ThrashKernel("k#0", lines, 40, 4)))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		if err := traceio.Write(&raw, tr, traceio.WriteOptions{Gzip: true}); err != nil {
			t.Fatal(err)
		}
		return raw.Bytes()
	}
	params := config.DefaultPoise()
	params.MinTrainCycles = 1
	// samples ingests the traces in order into one service on cache and
	// returns every sample its log holds, in ingest order.
	samples := func(cache string, traces ...[]byte) []poise.Sample {
		t.Helper()
		logPath := filepath.Join(t.TempDir(), "samples.jsonl")
		s, c := newTestServer(t, Config{
			Weights: testWeights(), Params: params,
			SimCfg:     testutil.TinyConfig(),
			Sweep:      profile.SweepOptions{StepN: 4, StepP: 4},
			SweepCache: cache, SampleLog: logPath,
			Retrain: RetrainOptions{Min: 1 << 20},
		})
		for _, raw := range traces {
			if _, err := c.IngestTrace(context.Background(), raw); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := parseLog(data)
		if err != nil {
			t.Fatal(err)
		}
		var out []poise.Sample
		for _, rec := range recs {
			out = append(out, rec.Samples...)
		}
		return out
	}
	a, b := record(8), record(16)
	wantA, wantB := samples(t.TempDir(), a), samples(t.TempDir(), b)
	if len(wantA) != 1 || len(wantB) != 1 || wantA[0].BestSpeedup == wantB[0].BestSpeedup {
		t.Fatalf("the two traces must yield one sample each, profiled apart: %+v, %+v", wantA, wantB)
	}
	if got := samples(t.TempDir(), a, b); !reflect.DeepEqual(got, append(wantA, wantB...)) {
		t.Fatalf("one cache: samples %+v, fresh caches give %+v then %+v", got, wantA, wantB)
	}
}

// TestServeIngestBoundsDecompressedBody is the gzip-bomb guard: MaxBody
// bounds an ingest body as it inflates, not only as sent. A valid trace
// whose JSON header is padded with 8 MiB of spaces gzips to under
// 20 KiB, far under a 1 MiB limit; it must be refused with 413, as the
// same body sent plain is, and never reach the sample log.
func TestServeIngestBoundsDecompressedBody(t *testing.T) {
	tr, err := traceio.Record(workloads.NewCatalogue(workloads.Small).Must("ii"))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := traceio.Write(&plain, tr, traceio.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// magic, version (one byte), header length, header, streams.
	prologue := plain.Bytes()[:len(snap.TraceMagic)+1]
	hdrLen, n := binary.Uvarint(plain.Bytes()[len(prologue):])
	hdr := plain.Bytes()[len(prologue)+n:][:hdrLen]
	streams := plain.Bytes()[len(prologue)+n+int(hdrLen):]
	const pad = 8 << 20
	var padded, zipped bytes.Buffer
	padded.Write(prologue)
	padded.Write(binary.AppendUvarint(nil, hdrLen+pad))
	padded.Write(hdr)
	padded.Write(bytes.Repeat([]byte{' '}, pad))
	padded.Write(streams)
	zw := gzip.NewWriter(&zipped)
	zw.Write(padded.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	const maxBody = 1 << 20
	if zipped.Len() > maxBody/16 {
		t.Fatalf("the body gzips to %d bytes, want well under the limit", zipped.Len())
	}

	logPath := filepath.Join(t.TempDir(), "samples.jsonl")
	s, c := newTestServer(t, Config{
		Weights:    testWeights(),
		SimCfg:     config.Default().Scale(1),
		Sweep:      profile.SweepOptions{StepN: 12, StepP: 12},
		SweepCache: t.TempDir(),
		SampleLog:  logPath,
		MaxBody:    maxBody,
	})
	for _, body := range [][]byte{zipped.Bytes(), padded.Bytes()} {
		resp, err := c.HTTP.Post(c.Base+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("an 8 MiB body sent as %d bytes: status %d, want 413", len(body), resp.StatusCode)
		}
	}
	if st := s.Stats(); st.IngestedRecords != 0 {
		t.Fatalf("a refused body was ingested: %+v", st)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, err := parseLog(data); err != nil || len(recs) != 0 {
		t.Fatalf("a refused body reached the sample log: %d records, err %v", len(recs), err)
	}
}

// TestServeIngestWhileDeciding is the hot-swap chaos test: concurrent
// /decide batches race concurrent /ingest-triggered retrains. Under
// `go test -race` this pins the acceptance criterion that the swap is
// race-clean; the counters then confirm nothing was dropped.
func TestServeIngestWhileDeciding(t *testing.T) {
	s, c := newTestServer(t, Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 8}})
	const (
		deciders     = 4
		decideRounds = 25
		batch        = 3
		ingesters    = 2
		ingestRounds = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, deciders+ingesters)
	for g := 0; g < deciders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < decideRounds; i++ {
				reqs := make([]DecideRequest, batch)
				for j := range reqs {
					reqs[j] = DecideRequest{Key: fmt.Sprintf("k%d", (g+i+j)%5), X: testVector(j), MaxN: 24}
				}
				if _, err := c.Decide(context.Background(), reqs); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ingestRounds; i++ {
				if _, err := c.IngestRecord(context.Background(), synthRecord(g*100+i, 8)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if want := int64(deciders * decideRounds * batch); st.Decisions != want {
		t.Fatalf("decisions = %d, want %d", st.Decisions, want)
	}
	if want := int64(ingesters * ingestRounds); st.IngestedRecords != want {
		t.Fatalf("ingested = %d, want %d", st.IngestedRecords, want)
	}
	if st.Retrains < 1 || st.RetrainErrors != 0 {
		t.Fatalf("retrains = %d, errors = %d", st.Retrains, st.RetrainErrors)
	}
	if st.WeightsVersion < 2 {
		t.Fatalf("weights never advanced: %+v", st)
	}
}

// TestServeIngestCIFixture keeps the checked-in CI record honest: the
// workflow's round-trip step curls testdata/ci-ingest.json at a live
// service and requires the reply to carry a retrained weights version,
// so the fixture must keep training cleanly.
func TestServeIngestCIFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "ci-ingest.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 16}})
	rep, err := c.IngestRecord(context.Background(), mustRecord(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "ci-synth" || rep.Samples != 16 || rep.WeightsVersion < 2 {
		t.Fatalf("fixture ingest reply = %+v", rep)
	}
	if st := s.Stats(); st.Retrains != 1 || st.RetrainErrors != 0 {
		t.Fatalf("fixture must train cleanly: %+v", st)
	}
}

func mustRecord(t *testing.T, data []byte) Record {
	t.Helper()
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, "127.0.0.1:0", addrCh) }()
	addr := <-addrCh

	c := &Client{Base: "http://" + addr}
	// The ingest retrains before its reply, so shutdown finds nothing
	// pending; after it the service refuses further ingests.
	if _, err := c.IngestRecord(context.Background(), synthRecord(1, 9)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if st := s.Stats(); st.Retrains != 1 || st.WeightsVersion != 2 {
		t.Fatalf("shutdown lost the retrain: %+v", st)
	}
	if _, err := s.ingest(synthRecord(2, 1)); err == nil {
		t.Fatal("an ingest after shutdown must fail")
	}
}

// TestServeFirstDecideUsesReplayedModel: a service booted over an
// existing sample log answers its very first /decide with the model the
// log trains, not the boot weights.
func TestServeFirstDecideUsesReplayedModel(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "samples.jsonl")
	l, _, err := OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := synthRecord(1, 12)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := trainOn(t, rec)

	_, c := newTestServer(t, Config{Weights: testWeights(), SampleLog: logPath, Retrain: RetrainOptions{Min: 8}})
	x := testVector(3)
	replies, err := c.Decide(context.Background(), []DecideRequest{{Key: "k", X: x, MaxN: 24}})
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantP := want.PredictTuple(x, 24)
	if got := replies[0]; got.Version != 2 || got.N != wantN || got.P != wantP {
		t.Fatalf("first decision = %+v, want (%d,%d) from the replayed model v2", got, wantN, wantP)
	}
}
