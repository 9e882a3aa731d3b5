package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"poise/internal/gridplan"
	"poise/internal/profile"
	"poise/internal/testutil"
	"poise/internal/trace"
)

// completionBody is a /v1/complete body for generation 0 carrying one
// result line per key.
func completionBody(t testing.TB, keys []string, data string) []byte {
	t.Helper()
	lines := make([]resultLine, len(keys))
	for i, k := range keys {
		lines[i] = resultLine{Key: k, Data: json.RawMessage(data)}
	}
	var buf bytes.Buffer
	if err := gridplan.WriteLines(&buf, completeHeader{Worker: "w", Gen: 0, Lease: "L1", Count: len(lines)}, lines); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postComplete serves one /v1/complete POST of body and returns the
// status.
func postComplete(coord *Coordinator, body []byte) int {
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complete", bytes.NewReader(body)))
	return rec.Code
}

// TestCoordinatorRefusesForeignCompletions: a completion naming as many
// keys as the plan has tasks, none of them the plan's, is refused with
// 400 and counts for nothing: the campaign is not done, and a worker
// then completes it with the measurements of the in-process run.
func TestCoordinatorRefusesForeignCompletions(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("foreign", 20, 12, 4)
	opts := profile.SweepOptions{StepN: 8, StepP: 8}
	kernels := map[string]*trace.Kernel{k.Name: k}
	plan := profile.BuildPlan("t", cfg, k, opts)
	ms, err := profile.RunTasks(cfg, kernels, plan.Tasks, opts)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	foreign := make([]string, len(plan.Tasks))
	for i := range foreign {
		foreign[i] = fmt.Sprintf("not|in|the|plan%d", i)
	}
	if code := postComplete(coord, completionBody(t, foreign, `{}`)); code != http.StatusBadRequest {
		t.Errorf("a completion of %d foreign keys: status %d, want 400", len(foreign), code)
	}
	select {
	case <-coord.finished:
		t.Fatal("the campaign is done and no task of it has run")
	default:
	}

	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := &Worker{Base: srv.URL, Name: "w", Poll: 5 * time.Millisecond, Executors: profileExecutors(kernels, opts)}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, ms, res)
}

// FuzzCompleteBody: whatever a /v1/complete POST carries, the
// coordinator answers 200 or a 4xx, does not panic, and never completes
// the campaign without a result for every task of the plan.
func FuzzCompleteBody(f *testing.F) {
	plan := profile.BuildPlan("t", testutil.TinyConfig(), testutil.ThrashKernel("fuzz", 20, 12, 4),
		profile.SweepOptions{StepN: 8, StepP: 8})
	plan.Sort()
	keys := map[string]bool{}
	var all []string
	for _, task := range plan.Tasks {
		keys[task.Key()] = true
		all = append(all, task.Key())
	}
	foreign := make([]string, len(all))
	for i := range foreign {
		foreign[i] = fmt.Sprintf("x|%d", i)
	}
	f.Add(completionBody(f, all, `{}`))
	f.Add(completionBody(f, all[:len(all)/2], `{"cycles":1}`))
	f.Add(completionBody(f, foreign, `{}`))
	f.Add(completionBody(f, append(all[:1:1], all...), `{}`))
	f.Add(bytes.Replace(completionBody(f, all, `{}`), []byte(`"data":{}`), []byte(`"error":"boom"`), 1))
	f.Add([]byte(`{"worker":"w","gen":0,"lease":"L1","count":-1}` + "\n"))
	f.Add([]byte(`{"worker":"w","gen":0,"lease":"L1","count":1}` + "\n\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		coord, err := NewCoordinator(ProfileCampaign{Plan: plan}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if code := postComplete(coord, body); code != http.StatusOK && (code < 400 || code >= 500) {
			t.Fatalf("status %d", code)
		}
		select {
		case <-coord.finished:
		default:
			return
		}
		res, err := coord.Wait(context.Background())
		if err != nil {
			return // failed (a task error line), not done
		}
		seen := 0
		for _, r := range res {
			if keys[r.Key] {
				seen++
			}
		}
		if seen != len(keys) || len(res) != len(keys) {
			t.Fatalf("campaign done with %d results, %d of them for the plan's %d tasks", len(res), seen, len(keys))
		}
	})
}
