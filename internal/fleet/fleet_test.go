package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"poise/internal/config"
	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/testutil"
	"poise/internal/trace"
	"poise/internal/workloads"
)

// fleetRun serves camp on a local HTTP server and runs the given
// workers against it concurrently, returning the coordinator's
// results. Worker errors other than allowErr fail the test.
func fleetRun(t *testing.T, camp Campaign, opts Options, workers []*Worker, allowErr error) ([]Result, *Coordinator) {
	t.Helper()
	coord, err := NewCoordinator(camp, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		w.Base = srv.URL
		if w.Poll == 0 {
			w.Poll = 5 * time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
		// Workers join in the order given: the next one starts once this
		// one's lease has been granted (or the campaign is over), so "the
		// victim holds a lease, then the fast worker drains the queue" is
		// the scenario on a loaded machine too.
	joined:
		for coord.Stats().Granted <= i {
			select {
			case <-coord.finished:
				break joined
			case <-ctx.Done():
				break joined
			case <-time.After(time.Millisecond):
			}
		}
	}
	res, werr := coord.Wait(ctx)
	if werr != nil {
		t.Fatalf("campaign failed: %v", werr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && err != allowErr {
			t.Fatalf("worker %s: %v", workers[i].Name, err)
		}
	}
	return res, coord
}

// dirBytes reads every file under dir into a path-keyed map, for
// byte-level directory comparison.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("no files under %s", dir)
	}
	return out
}

func profileExecutors(kernels map[string]*trace.Kernel, opts profile.SweepOptions) map[string]Executor {
	return map[string]Executor{
		gridplan.ProfilePlanFormat: ProfileExecutor{Cfg: testutil.TinyConfig(), Kernels: kernels, Opts: opts},
	}
}

// sameMeasurements fails the test unless a campaign's results decode to
// exactly what profile.RunTasks measured in process for the same tasks:
// the records profile.MergeShards assembles any profile from.
func sameMeasurements(t *testing.T, want []gridplan.Measurement, res []Result) {
	t.Helper()
	want, err := gridplan.Merge(want) // key order, as the coordinator merges
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode[gridplan.Measurement](res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet measurements differ from the in-process run:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestFleetByteIdenticalUnderKillAndStealAndExpiry is the acceptance
// invariant of the fleet: a three-worker run in which one worker is
// killed mid-lease, at least one batch is stolen, and at least one
// lease expires must merge exactly the measurements of the
// single-process run. The chaos is guaranteed, not incidental: the
// victim dies holding 3 pending tasks; once the queue drains, an idle
// worker's grant must steal from that dead lease (its pending count
// is at least stealMin); and because stealing halves leave a final
// task below stealMin, only TTL expiry can recover it.
func TestFleetByteIdenticalUnderKillAndStealAndExpiry(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fleetchaos", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	tag := "fleettag"
	kernels := map[string]*trace.Kernel{k.Name: k}

	// Reference: the plan run in-process through the code the executor
	// runs.
	plan := profile.BuildPlan(tag, cfg, k, opts)
	if len(plan.Tasks) < 12 {
		t.Fatalf("plan has only %d tasks; the chaos schedule needs more", len(plan.Tasks))
	}
	ms, err := profile.RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}

	workers, kill := chaosWorkers(kernels, opts)
	res, coord := fleetRun(t, ProfileCampaign{Plan: plan}, chaosOptions(t), workers, testutil.ErrKilled)
	st := provedChaos(t, coord, kill)
	if st.Tasks != len(plan.Tasks) || len(res) != len(plan.Tasks) {
		t.Fatalf("%d results for %d tasks (stats %+v)", len(res), len(plan.Tasks), st)
	}
	sameMeasurements(t, ms, res)
}

// chaosWorkers is the worker set of the chaos tests: victim completes
// one task and dies holding the rest of its 4-task lease; slow makes
// steady progress; fast drains the queue and then steals — once the
// victim is dead: a fast worker on a loaded machine can otherwise empty
// the queue and steal the victim's lease down to the task it is on
// before it ever reaches its second. Run them in this order under
// chaosOptions, allowing testutil.ErrKilled.
func chaosWorkers(kernels map[string]*trace.Kernel, opts profile.SweepOptions) ([]*Worker, *testutil.KillSwitch) {
	kill := testutil.NewKillSwitch(1)
	victim := &Worker{Name: "victim", Executors: profileExecutors(kernels, opts), BeforeTask: kill.Hook}
	slow := &Worker{Name: "slow", Executors: profileExecutors(kernels, opts),
		BeforeTask: func(int) error { time.Sleep(20 * time.Millisecond); return nil }}
	fast := &Worker{Name: "fast", Executors: profileExecutors(kernels, opts),
		BeforeTask: func(int) error {
			for !kill.Fired() {
				time.Sleep(time.Millisecond)
			}
			return nil
		}}
	return []*Worker{victim, slow, fast}, kill
}

// chaosOptions leases four tasks at a time, lets a lease of two or more
// pending tasks be stolen, and expires a lease 700 ms after its last
// completion.
func chaosOptions(t *testing.T) Options {
	return Options{LeaseTasks: 4, LeaseTTL: 700 * time.Millisecond, Logf: t.Logf}
}

// provedChaos fails the test unless the chaos workers' campaign really
// killed the victim, stole a batch and expired a lease, and returns the
// coordinator's stats.
func provedChaos(t *testing.T, coord *Coordinator, kill *testutil.KillSwitch) Stats {
	t.Helper()
	if !kill.Fired() {
		t.Fatal("kill switch never fired: the victim was not killed mid-lease")
	}
	st := coord.Stats()
	if st.StolenBatches < 1 {
		t.Fatalf("stats %+v: no batch was stolen", st)
	}
	if st.Expired < 1 {
		t.Fatalf("stats %+v: no lease expired", st)
	}
	return st
}

// TestFleetStealRebalancesWithoutExpiry: with an effectively infinite
// TTL, work still rebalances — a fast worker steals the slow worker's
// tail instead of idling — and the output is unchanged.
func TestFleetStealRebalancesWithoutExpiry(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fleetsteal", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := profile.BuildPlan("stealtag", cfg, k, opts)

	ms, err := profile.RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}

	slow := &Worker{Name: "slow", Executors: profileExecutors(kernels, opts),
		BeforeTask: func(int) error { time.Sleep(80 * time.Millisecond); return nil }}
	fast := &Worker{Name: "fast", Executors: profileExecutors(kernels, opts)}
	fopts := Options{LeaseTasks: 8, LeaseTTL: time.Hour, Logf: t.Logf}
	res, coord := fleetRun(t, ProfileCampaign{Plan: plan}, fopts, []*Worker{slow, fast}, nil)

	st := coord.Stats()
	if st.StolenBatches < 1 {
		t.Fatalf("stats %+v: the fast worker never stole from the slow one", st)
	}
	if st.Expired != 0 {
		t.Fatalf("stats %+v: nothing should expire under an hour-long TTL", st)
	}
	sameMeasurements(t, ms, res)
}

// TestFleetFlakyTransportDeduplicates: a transport that drops replies
// after delivery forces the worker's retry path to re-send completions
// the coordinator has already recorded. The duplicates must be counted
// and dropped, and the output must not change.
func TestFleetFlakyTransportDeduplicates(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fleetflaky", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 4, StepP: 4}
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := profile.BuildPlan("flakytag", cfg, k, opts)

	ms, err := profile.RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}

	flaky := &testutil.FlakyTransport{DropReplyEvery: 5}
	w := &Worker{Name: "flaky", Executors: profileExecutors(kernels, opts),
		Client: &http.Client{Transport: flaky}}
	// A completion whose dropped reply is the campaign's last is retried
	// into a finished campaign and not counted. The steady worker is held
	// back so that the flaky one's first drop — its fifth request, the
	// third completion of its first lease — comes with most tasks still
	// queued, however the machine schedules the two.
	steady := &Worker{Name: "steady", Executors: profileExecutors(kernels, opts),
		BeforeTask: func(int) error { time.Sleep(5 * time.Millisecond); return nil }}
	fopts := Options{LeaseTasks: 4, LeaseTTL: 500 * time.Millisecond, Logf: t.Logf}
	res, coord := fleetRun(t, ProfileCampaign{Plan: plan}, fopts, []*Worker{w, steady}, nil)

	if flaky.Dropped.Load() == 0 {
		t.Fatal("the flaky transport never dropped a reply; the duplicate path was not exercised")
	}
	st := coord.Stats()
	if st.Duplicates < 1 {
		t.Fatalf("stats %+v: dropped completion replies must resurface as duplicates", st)
	}
	sameMeasurements(t, ms, res)
}

// TestRefineCampaignMatchesPrunedSweep: the multi-generation campaign
// must reproduce the in-process refined sweep (Store.LoadOrSweepAll
// with Refine set) byte-for-byte — every round's plan is the same pure
// function of the merged prior — under two steady workers and under
// the chaos workers (a victim killed mid-lease, a stolen batch, an
// expired lease), and resuming from a store holding all rounds must
// run zero new tasks.
func TestRefineCampaignMatchesPrunedSweep(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("fleetrefine", 20, 15, 4)
	opts := profile.SweepOptions{StepN: 2, StepP: 2}
	kernels := map[string]*trace.Kernel{k.Name: k}

	refined := opts
	refined.Refine = true
	refDir := t.TempDir()
	if _, err := (profile.Store{Dir: refDir}).LoadOrSweepAll(cfg, []*trace.Kernel{k}, refined); err != nil {
		t.Fatal(err)
	}
	profileName := profile.Key(cfg, k, refined) + ".json"
	// The round files hold the same measurements, in the order each
	// executor handed them back: plan order in process, key order from
	// a coordinator. The profiles are what must agree.
	profiles := func(dir string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, profileName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := profiles(refDir)

	for _, chaos := range []bool{false, true} {
		st := profile.Store{Dir: t.TempDir()}
		refinement := func() RefineCampaign {
			return RefineCampaign{R: profile.NewRefinement(cfg, []*trace.Kernel{k}, opts, st)}
		}
		camp := refinement()
		var coord *Coordinator
		if chaos {
			workers, kill := chaosWorkers(kernels, opts)
			_, coord = fleetRun(t, camp, chaosOptions(t), workers, testutil.ErrKilled)
			provedChaos(t, coord, kill)
		} else {
			w1 := &Worker{Name: "w1", Executors: profileExecutors(kernels, opts)}
			w2 := &Worker{Name: "w2", Executors: profileExecutors(kernels, opts)}
			fopts := Options{LeaseTasks: 4, LeaseTTL: time.Minute, Logf: t.Logf}
			_, coord = fleetRun(t, camp, fopts, []*Worker{w1, w2}, nil)
		}
		if g := coord.Stats().Generations; g < 2 {
			t.Fatalf("chaos %v: refinement ran %d generations, want at least a coarse and a refine round", chaos, g)
		}

		if _, err := camp.R.Profiles(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(profiles(st.Dir), want) {
			t.Fatalf("chaos %v: fleet refinement profile differs from the in-process sweep's", chaos)
		}
		saved := dirBytes(t, st.Dir)

		// Resume: every round is cached, so a fresh campaign over the
		// same store, its profile deleted, must converge without
		// granting a single lease and save the same profile.
		if err := os.Remove(filepath.Join(st.Dir, profileName)); err != nil {
			t.Fatal(err)
		}
		resumed := refinement()
		coord2, err := NewCoordinator(resumed, Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord2.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := coord2.Stats(); st.Tasks != 0 || st.Granted != 0 {
			t.Fatalf("chaos %v: resumed campaign ran %+v, want zero work", chaos, st)
		}
		if _, err := resumed.R.Profiles(); err != nil {
			t.Fatal(err)
		}
		if got := dirBytes(t, st.Dir); !reflect.DeepEqual(got, saved) {
			t.Fatalf("chaos %v: the resumed refinement's store differs from the campaign's", chaos)
		}
	}
}

// TestRefineCampaignPublishesParentPlans: what the campaign adds to the
// refinement (key order, the plan container, one unit a task, decoding
// the results) against ../profile/testdata/pr22_refine, which the
// parent of the commit that moved the state machine into
// profile.Refinement wrote: plans/ with its own RefineCampaign, inproc/
// with its in-process sweep (see TestRefinementReproducesParentGoldens
// there for the set-up: mm#2 and mm#3 on 2 SMs at step 4, mm#3 resumed
// from its round 0 on disk). Every generation's plan bytes must be the
// campaign's, and the round files and saved profiles, though handed
// back in key order, the in-process sweep's, under today's keys: the
// parent tagged mm#2 "tagA" and mm#3 "tagB" and named files
// "<tag>_<kernel>", the one key is profile.SweepTag and profile.Key
// (testutil.Rekey).
func TestRefineCampaignPublishesParentPlans(t *testing.T) {
	cfg := config.Default().Scale(2)
	mm := workloads.NewCatalogue(workloads.Small).Must("mm")
	ka, kb := mm.Kernels[2], mm.Kernels[3]
	kernels := map[string]*trace.Kernel{ka.Name: ka, kb.Name: kb}
	opts := profile.SweepOptions{StepN: 4, StepP: 4, Refine: true}
	golden := func(sub string) string {
		tag := profile.SweepTag(cfg, opts)
		return testutil.Rekey(t, filepath.Join("..", "profile", "testdata", "pr22_refine", sub),
			map[string]string{"tagA_" + ka.Name: profile.Key(cfg, ka, opts), "tagB_" + kb.Name: profile.Key(cfg, kb, opts)},
			map[string]string{"tagA": tag, "tagB": tag})
	}
	storeDir, plans := golden("inproc"), golden("plans")
	st := profile.Store{Dir: t.TempDir()}
	round0 := profile.Key(cfg, kb, opts) + ".prune000.jsonl"
	data, err := os.ReadFile(filepath.Join(storeDir, round0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir, round0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	camp := RefineCampaign{R: profile.NewRefinement(cfg, []*trace.Kernel{ka, kb}, opts, st)}
	var prev []Result
	for gen := 0; ; gen++ {
		planData, units, done, err := camp.Next(gen, prev)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(plans, fmt.Sprintf("gen%d.jsonl", gen))
		if done {
			if _, err := os.Stat(name); err == nil {
				t.Fatalf("campaign done after %d generations, the parent's published %s", gen, name)
			}
			break
		}
		if want, err := os.ReadFile(name); err != nil || !bytes.Equal(planData, want) {
			t.Fatalf("generation %d differs from %s (%v):\n%s", gen, name, err, planData)
		}
		tasks := make([]gridplan.Task, len(units))
		for i, u := range units {
			if err := json.Unmarshal(u.line, &tasks[i]); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := profile.RunTasks(cfg, kernels, tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		prev = prev[:0]
		for _, m := range ms { // units, hence ms, are in key order
			d, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			prev = append(prev, Result{Key: m.Key(), Data: d})
		}
	}
	if _, err := camp.R.Profiles(); err != nil {
		t.Fatal(err)
	}
	if want, got := dirBytes(t, storeDir), dirBytes(t, st.Dir); !reflect.DeepEqual(want, got) {
		t.Fatal("the campaign's round files and profiles differ from the parent's")
	}
}

// TestWorkerRejectsDriftedCatalogue: an executor prepared against
// traces that do not match the plan's digests must refuse the whole
// plan up front, and the batch of a plan it did accept refuses a task
// that is not of that plan.
func TestWorkerRejectsDriftedCatalogue(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("drift", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 8, StepP: 8}
	plan := profile.BuildPlan("t", cfg, k, opts)
	data, units, _, err := ProfileCampaign{Plan: plan}.Next(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	drifted := testutil.ThrashKernel("drift", 20, 13, 4)
	ex := ProfileExecutor{Cfg: cfg, Kernels: map[string]*trace.Kernel{k.Name: drifted}, Opts: opts}
	if _, err := ex.Prepare(data); err == nil {
		t.Fatal("Prepare must reject a kernel whose digest differs from the plan's")
	}
	if _, err := (ProfileExecutor{Cfg: cfg, Kernels: nil, Opts: opts}).Prepare(data); err == nil {
		t.Fatal("Prepare must reject a plan whose kernel is absent")
	}

	b, err := ProfileExecutor{Cfg: cfg, Kernels: map[string]*trace.Kernel{k.Name: k}, Opts: opts}.Prepare(data)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := b.Run([]json.RawMessage{units[0].line}); err != nil || len(out) != 1 {
		t.Fatalf("a lease of one task of the plan: %d results, %v", len(out), err)
	}
	stray := plan.Tasks[0]
	stray.Digest = "0000"
	line, _ := json.Marshal(stray)
	if _, err := b.Run([]json.RawMessage{line}); err == nil {
		t.Fatal("Run must refuse a task whose digest the prepared plan does not carry")
	}
}

// endless is a request body that never ends, counting what is read of
// it.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.n += len(p)
	return len(p), nil
}

// TestCoordinatorBoundsRequestBodies: a lease request or a completion
// whose body never ends gets a 4xx once the coordinator has read its
// bound of it (not the whole body, which would be never), and the
// campaign goes on to complete.
func TestCoordinatorBoundsRequestBodies(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("bounds", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 8, StepP: 8}
	plan := profile.BuildPlan("t", cfg, k, opts)
	coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, head string
		most       int
	}{
		{"/v1/lease", `{"worker":"`, maxLeaseBody + 1},
		{"/v1/complete", `{"worker":"w","gen":0,"lease":"l","count":1}` + "\n" + `{"key":"`, 5 << 20},
	} {
		src := &endless{}
		req := httptest.NewRequest(http.MethodPost, c.path, io.MultiReader(strings.NewReader(c.head), src))
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, req)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Errorf("%s with an endless body: status %d, want a 4xx", c.path, rec.Code)
		}
		if src.n > c.most {
			t.Errorf("%s read %d bytes of an endless body, want at most %d", c.path, src.n, c.most)
		}
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := &Worker{Base: srv.URL, Name: "w", Poll: 5 * time.Millisecond,
		Executors: profileExecutors(map[string]*trace.Kernel{k.Name: k}, opts)}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(plan.Tasks) {
		t.Fatalf("%d results for %d tasks", len(res), len(plan.Tasks))
	}
}

// failExecutor accepts any plan and fails every task — the shape of a
// deterministic executor-side failure.
type failExecutor struct{}

func (failExecutor) Prepare([]byte) (Batch, error) { return failBatch{}, nil }

type failBatch struct{}

func (failBatch) Run(lines []json.RawMessage) ([]json.RawMessage, error) {
	return nil, errors.New("synthetic task failure")
}

// TestFleetTaskErrorFailsCampaignFast: a worker that cannot execute a
// task reports it, and the coordinator fails the whole campaign
// rather than retrying a deterministic failure elsewhere.
func TestFleetTaskErrorFailsCampaignFast(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("failfast", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 8, StepP: 8}
	plan := profile.BuildPlan("t", cfg, k, opts)

	coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w := &Worker{
		Base: srv.URL, Name: "bad", Poll: 5 * time.Millisecond,
		Executors: map[string]Executor{
			gridplan.ProfilePlanFormat: failExecutor{},
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := w.Run(ctx); err == nil {
		t.Fatal("worker must surface the task error")
	}
	if _, err := coord.Wait(ctx); err == nil {
		t.Fatal("coordinator must fail the campaign on a task error")
	}
}
