package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"poise/internal/gridplan"
	"poise/internal/sim"
)

// An Executor turns a fetched plan into a Batch that can run its
// tasks. Prepare sees the whole plan, so it validates everything up
// front (catalogue presence, content digests, configuration tags) —
// a worker launched with drifted flags fails before leasing anything.
type Executor interface {
	Prepare(planData []byte) (Batch, error)
}

// A Batch executes task lines from the plan it was prepared for and
// returns one serialised result per line, aligned with the input.
type Batch interface {
	Run(lines []json.RawMessage) ([]json.RawMessage, error)
}

// Worker pulls leases from a coordinator until the campaign
// completes. One worker serves any number of plan generations; the
// executor for each is selected by the plan's format.
type Worker struct {
	// Base is the coordinator's base URL (e.g. "http://host:9444").
	Base string
	// Name identifies the worker in coordinator logs.
	Name string
	// Executors dispatches plan formats (gridplan.ProfilePlanFormat,
	// gridplan.CellPlanFormat) to their executor.
	Executors map[string]Executor
	// Client overrides the HTTP client (tests inject flaky
	// transports); nil uses a default.
	Client *http.Client
	// Poll is the idle re-poll interval when the coordinator has
	// nothing to grant (default 50ms).
	Poll time.Duration
	// Chunk is how many tasks run per Batch.Run call before their
	// results are streamed back (default 1 — finest-grained progress,
	// so steals and crash recovery lose at most one task's work).
	Chunk int
	// Retries bounds transport-level retries per request (default 10,
	// with exponential backoff — generous enough to ride out a
	// coordinator that is still starting up).
	Retries int
	// BeforeTask, when set, runs before each task with the number of
	// tasks this worker has completed so far. An error stops the
	// worker immediately, mid-lease — the chaos tests' kill switch.
	BeforeTask func(done int) error
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	ran int // tasks completed (for BeforeTask)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 5 * time.Minute}
}

// Run serves the campaign to completion: fetch the current plan,
// prepare its executor, then lease-execute-complete until the
// coordinator reports a new generation (refetch) or done (exit).
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = 50 * time.Millisecond
	}
	if w.Chunk <= 0 {
		w.Chunk = 1
	}
	if w.Retries <= 0 {
		w.Retries = 10
	}
	for {
		env, planData, err := w.fetchPlan(ctx)
		if err != nil {
			return err
		}
		if env.Error != "" {
			return fmt.Errorf("fleet: campaign failed: %s", env.Error)
		}
		if env.Done {
			w.logf("worker %s: campaign complete after %d tasks", w.Name, w.ran)
			return nil
		}
		ex := w.Executors[env.Format]
		if ex == nil {
			return fmt.Errorf("fleet: no executor for plan format %q", env.Format)
		}
		batch, err := ex.Prepare(planData)
		if err != nil {
			return fmt.Errorf("fleet: preparing generation %d: %w", env.Gen, err)
		}
		w.logf("worker %s: generation %d (%s)", w.Name, env.Gen, env.Format)
		if err := w.serveGen(ctx, env.Gen, batch); err != nil {
			if err == errStaleGen {
				continue // the campaign advanced; refetch the plan
			}
			return err
		}
	}
}

// errStaleGen signals that the coordinator moved to a new generation.
var errStaleGen = fmt.Errorf("fleet: stale generation")

// serveGen runs leases of one generation until the coordinator
// advances or completes.
func (w *Worker) serveGen(ctx context.Context, gen int, batch Batch) error {
	for {
		rep, lines, err := w.requestLease(ctx, gen)
		if err != nil {
			return err
		}
		switch rep.Status {
		case statusDone:
			return nil
		case statusErr:
			return fmt.Errorf("fleet: campaign failed: %s", rep.Error)
		case statusGen:
			return errStaleGen
		case statusWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.Poll):
			}
		case statusOK:
			if err := w.runLease(ctx, gen, batch, rep, lines); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: unknown lease status %q", rep.Status)
		}
	}
}

// runLease executes a lease's tasks in grant order, streaming results
// back a chunk at a time and dropping any task the completion replies
// report as no longer owned (stolen, or settled by another worker).
func (w *Worker) runLease(ctx context.Context, gen int, batch Batch, rep leaseReply, lines []json.RawMessage) error {
	if len(lines) != len(rep.Keys) {
		return fmt.Errorf("fleet: lease %s: %d keys but %d task lines", rep.Lease, len(rep.Keys), len(lines))
	}
	byKey := make(map[string]json.RawMessage, len(lines))
	for i, k := range rep.Keys {
		byKey[k] = lines[i]
	}
	owned := rep.Keys
	for len(owned) > 0 {
		n := w.Chunk
		if n > len(owned) {
			n = len(owned)
		}
		chunkKeys := owned[:n]
		chunk := make([]json.RawMessage, n)
		for i, k := range chunkKeys {
			chunk[i] = byKey[k]
			if w.BeforeTask != nil {
				if err := w.BeforeTask(w.ran); err != nil {
					return err
				}
			}
		}
		results, runErr := batchRun(batch, chunkKeys, chunk)
		if runErr != nil {
			if errors.Is(runErr, sim.ErrInterrupted) {
				// Preempted (SIGTERM, lease-loss watchdog): the in-flight
				// task checkpointed to the shared store. Do NOT report an
				// error — the campaign is healthy; exiting without
				// completing lets the lease lapse so any other worker
				// re-leases the task and resumes it from the checkpoint.
				w.logf("worker %s: preempted mid-task; checkpoint left for takeover", w.Name)
				return runErr
			}
			// Report the failure so the coordinator fails the campaign
			// fast (task errors are deterministic), then surface it.
			w.postComplete(ctx, gen, rep.Lease, []resultLine{{Key: chunkKeys[0], Error: runErr.Error()}})
			return runErr
		}
		w.ran += n
		crep, err := w.postComplete(ctx, gen, rep.Lease, results)
		if err != nil {
			return err
		}
		switch crep.Status {
		case statusOK:
			owned = crep.Owned // grant order, minus stolen/settled tasks
		case statusGen, statusDone:
			return nil // settled elsewhere; next lease request sorts it out
		case statusErr:
			return fmt.Errorf("fleet: campaign failed: %s", crep.Error)
		default:
			return fmt.Errorf("fleet: unknown completion status %q", crep.Status)
		}
	}
	return nil
}

// batchRun executes one chunk and pairs results with their keys.
func batchRun(batch Batch, keys []string, chunk []json.RawMessage) ([]resultLine, error) {
	out, err := batch.Run(chunk)
	if err != nil {
		return nil, err
	}
	if len(out) != len(keys) {
		return nil, fmt.Errorf("fleet: batch returned %d results for %d tasks", len(out), len(keys))
	}
	lines := make([]resultLine, len(out))
	for i := range out {
		lines[i] = resultLine{Key: keys[i], Data: out[i]}
	}
	return lines, nil
}

// fetchPlan GETs the current plan generation.
func (w *Worker) fetchPlan(ctx context.Context) (planEnvelope, []byte, error) {
	body, err := w.do(ctx, http.MethodGet, "/v1/plan", nil)
	if err != nil {
		return planEnvelope{}, nil, err
	}
	l := gridplan.NewLines(bytes.NewReader(body))
	var env planEnvelope
	if err := l.Exact(&env); err != nil {
		return planEnvelope{}, nil, fmt.Errorf("fleet: plan envelope: %w", err)
	}
	if env.Fleet != "plan" {
		return planEnvelope{}, nil, fmt.Errorf("fleet: %s is not a fleet coordinator (envelope %q)", w.Base, env.Fleet)
	}
	// The plan itself goes to the executor as it came.
	rest, err := io.ReadAll(l.Rest())
	if err != nil {
		return planEnvelope{}, nil, err
	}
	return env, rest, nil
}

// requestLease POSTs a lease request and decodes the granted tasks.
func (w *Worker) requestLease(ctx context.Context, gen int) (leaseReply, []json.RawMessage, error) {
	reqBody, _ := json.Marshal(leaseRequest{Worker: w.Name, Gen: gen})
	body, err := w.do(ctx, http.MethodPost, "/v1/lease", reqBody)
	if err != nil {
		return leaseReply{}, nil, err
	}
	l := gridplan.NewLines(bytes.NewReader(body))
	var rep leaseReply
	if err := l.Exact(&rep); err != nil {
		return leaseReply{}, nil, fmt.Errorf("fleet: lease reply: %w", err)
	}
	lines, err := readBody[json.RawMessage](l, rep.Count)
	if err != nil {
		return leaseReply{}, nil, err
	}
	return rep, lines, nil
}

// postComplete streams finished task results back.
func (w *Worker) postComplete(ctx context.Context, gen int, leaseID string, lines []resultLine) (completeReply, error) {
	var buf bytes.Buffer
	hdr := completeHeader{Worker: w.Name, Gen: gen, Lease: leaseID, Count: len(lines)}
	if err := gridplan.WriteLines(&buf, hdr, lines); err != nil {
		return completeReply{}, err
	}
	body, err := w.do(ctx, http.MethodPost, "/v1/complete", buf.Bytes())
	if err != nil {
		return completeReply{}, err
	}
	var rep completeReply
	if err := json.Unmarshal(bytes.TrimSpace(body), &rep); err != nil {
		return completeReply{}, fmt.Errorf("fleet: completion reply: %w", err)
	}
	return rep, nil
}

// do issues one request with transport-level retries: connection
// errors back off exponentially (a coordinator that is still binding
// its port, a reply dropped mid-transfer), while HTTP-level errors
// fail immediately — the coordinator answered, so the request itself
// is wrong. Retried completions are safe by design: the coordinator
// deduplicates by task key.
func (w *Worker) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < w.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(w.Base, "/")+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := w.client().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fleet: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, nil
	}
	return nil, fmt.Errorf("fleet: %s %s: giving up after %d attempts: %w", method, path, w.Retries, lastErr)
}
