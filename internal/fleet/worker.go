package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"poise/internal/gridplan"
	"poise/internal/sim"
	"poise/internal/wire"
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
	// transports); nil uses wire.Do's default.
	Client *http.Client
	// Poll is the idle re-poll interval when the coordinator has
	// nothing to grant (default 50ms).
	Poll time.Duration
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

// Run serves the campaign to completion: fetch the current plan,
// prepare its executor, then lease-execute-complete until the
// coordinator reports a new generation (refetch) or done (exit).
func (w *Worker) Run(ctx context.Context) error {
	if w.Poll <= 0 {
		w.Poll = 50 * time.Millisecond
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

// runLease executes a lease's tasks in grant order, one at a time,
// streaming each result back as it finishes (so a steal or a crash loses
// at most the task in flight) and dropping any task the completion
// replies report as no longer owned (stolen, or settled by another
// worker).
func (w *Worker) runLease(ctx context.Context, gen int, batch Batch, rep leaseReply, lines []json.RawMessage) error {
	if len(lines) != len(rep.Keys) {
		return fmt.Errorf("fleet: lease %s: %d keys but %d task lines", rep.Lease, len(rep.Keys), len(lines))
	}
	byKey := make(map[string]json.RawMessage, len(lines))
	for i, k := range rep.Keys {
		byKey[k] = lines[i]
	}
	for owned := rep.Keys; len(owned) > 0; {
		key := owned[0]
		if w.BeforeTask != nil {
			if err := w.BeforeTask(w.ran); err != nil {
				return err
			}
		}
		out, runErr := batch.Run([]json.RawMessage{byKey[key]})
		if runErr == nil && len(out) != 1 {
			runErr = fmt.Errorf("fleet: batch returned %d results for 1 task", len(out))
		}
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
			w.postComplete(ctx, gen, rep.Lease, []resultLine{{Key: key, Error: runErr.Error()}})
			return runErr
		}
		w.ran++
		crep, err := w.postComplete(ctx, gen, rep.Lease, []resultLine{{Key: key, Data: out[0]}})
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

// fetchPlan GETs the current plan generation.
func (w *Worker) fetchPlan(ctx context.Context) (planEnvelope, []byte, error) {
	body, err := wire.Do(ctx, w.Client, http.MethodGet, w.Base, "/v1/plan", nil, wire.Idempotent)
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
	// A retried lease request may be granted twice; the lease nobody
	// runs expires or is stolen from, as a dead worker's would be.
	body, err := wire.Do(ctx, w.Client, http.MethodPost, w.Base, "/v1/lease", reqBody, wire.Idempotent)
	if err != nil {
		return leaseReply{}, nil, err
	}
	l := gridplan.NewLines(bytes.NewReader(body))
	var rep leaseReply
	if err := l.Exact(&rep); err != nil {
		return leaseReply{}, nil, fmt.Errorf("fleet: lease reply: %w", err)
	}
	lines, err := gridplan.ReadCounted[json.RawMessage](l, rep.Count)
	if err != nil {
		return leaseReply{}, nil, fmt.Errorf("fleet: lease reply %w", err)
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
	// Retried completions are safe: the coordinator deduplicates by key.
	body, err := wire.Do(ctx, w.Client, http.MethodPost, w.Base, "/v1/complete", buf.Bytes(), wire.Idempotent)
	if err != nil {
		return completeReply{}, err
	}
	var rep completeReply
	if err := json.Unmarshal(bytes.TrimSpace(body), &rep); err != nil {
		return completeReply{}, fmt.Errorf("fleet: completion reply: %w", err)
	}
	return rep, nil
}
