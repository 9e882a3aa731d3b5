package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"poise/internal/gridplan"
	"poise/internal/wire"
)

// Coordinator serves a Campaign to workers: it publishes the current
// plan generation, grants leases, accepts streamed completions, and
// advances to the next generation when the current one's results are
// complete. All state mutates under one mutex; handlers do no
// simulation, so the lock is never held across anything slow.
type Coordinator struct {
	opts Options
	camp Campaign

	mu       sync.Mutex
	gen      int
	planData []byte
	board    *board
	stats    Stats
	results  []Result // accumulated across generations, key order per gen
	done     bool
	err      error
	finished chan struct{}
}

// NewCoordinator starts a campaign: the first generation is built
// eagerly, so plan errors surface here rather than on a worker's
// first request.
func NewCoordinator(camp Campaign, opts Options) (*Coordinator, error) {
	c := &Coordinator{
		opts:     opts.withDefaults(),
		camp:     camp,
		gen:      -1,
		finished: make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.advanceLocked(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// advanceLocked asks the campaign for the next generation, skipping
// any empty ones, and marks the campaign finished when it is done.
// Called with c.mu held.
func (c *Coordinator) advanceLocked(prev []Result) error {
	for {
		c.gen++
		planData, units, done, err := c.camp.Next(c.gen, prev)
		if err != nil {
			return err
		}
		if done {
			c.done = true
			c.board = nil
			c.opts.Logf("fleet: campaign complete: %s", c.statsLineLocked())
			close(c.finished)
			return nil
		}
		if len(units) > 0 {
			c.planData = planData
			c.board = newBoard(units, c.opts, &c.stats)
			c.stats.Generations++
			c.stats.Tasks += len(units)
			c.opts.Logf("fleet: generation %d: %d tasks", c.gen, len(units))
			return nil
		}
		prev = nil // an empty generation contributes no results
	}
}

func (c *Coordinator) statsLineLocked() string {
	return fmt.Sprintf("%d tasks over %d generations; leases granted %d, expired %d, stolen batches %d (%d tasks), duplicate results %d",
		c.stats.Tasks, c.stats.Generations, c.stats.Granted, c.stats.Expired,
		c.stats.StolenBatches, c.stats.StolenTasks, c.stats.Duplicates)
}

// Stats returns a snapshot of the scheduling counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wait blocks until the campaign completes (or ctx is cancelled) and
// returns every accepted result in per-generation key order.
func (c *Coordinator) Wait(ctx context.Context) ([]Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.finished:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	return c.results, nil
}

// failLocked aborts the campaign. Called with c.mu held.
func (c *Coordinator) failLocked(err error) {
	if c.done {
		return
	}
	c.done = true
	c.err = err
	c.board = nil
	c.opts.Logf("fleet: campaign failed: %v", err)
	close(c.finished)
}

// What one request may make the coordinator read: a lease request is
// one small object, a completion a chunk of result lines (each line
// also within the container's own bound).
const (
	maxLeaseBody    = 64 << 10
	maxCompleteBody = 64 << 20
)

// linger is how long Serve keeps answering after the campaign settles.
const linger = 2 * time.Second

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plan", c.handlePlan)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	return mux
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	env := planEnvelope{Fleet: "plan", Gen: c.gen, Format: c.camp.Format(), Done: c.done}
	if c.err != nil {
		env.Error = c.err.Error()
	}
	planData := c.planData
	c.mu.Unlock()

	// A failed write is the worker's to notice: its count check or its
	// plan reader refuses the short body and the request is retried.
	w.Header().Set("Content-Type", "application/jsonl")
	if err := gridplan.WriteLines[json.RawMessage](w, env, nil); err == nil && !env.Done {
		w.Write(planData)
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !wire.Decode(w, r, maxLeaseBody, func(body io.Reader) error {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return fmt.Errorf("fleet: bad lease request: %w", err)
		}
		return nil
	}) {
		return
	}
	c.mu.Lock()
	rep := leaseReply{Fleet: "lease", Gen: c.gen}
	var lines []json.RawMessage
	switch {
	case c.err != nil:
		rep.Status, rep.Error = statusErr, c.err.Error()
	case c.done:
		rep.Status = statusDone
	case req.Gen != c.gen:
		rep.Status = statusGen
	default:
		// No lease means poll again: nothing is grantable now, or every
		// task of the generation is done and the final completion's
		// handler has yet to advance the campaign.
		rep.Status = statusWait
		if l, _ := c.board.grant(req.Worker, c.opts.now()); l != nil {
			rep.Status, rep.Lease = statusOK, l.id
			rep.DeadlineMS = time.Until(l.deadline).Milliseconds()
			rep.Count = len(l.pending)
			for _, u := range l.pending {
				rep.Keys = append(rep.Keys, u.key)
				lines = append(lines, u.line)
			}
		}
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/jsonl")
	gridplan.WriteLines(w, rep, lines)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var hdr completeHeader
	var lines []resultLine
	if !wire.Decode(w, r, maxCompleteBody, func(body io.Reader) (err error) {
		l := gridplan.NewLines(body)
		if err := l.Exact(&hdr); err != nil {
			return fmt.Errorf("fleet: bad completion header: %w", err)
		}
		if lines, err = gridplan.ReadCounted[resultLine](l, hdr.Count); err != nil {
			return fmt.Errorf("fleet: completion %w", err)
		}
		for i, l := range lines {
			if l.Key == "" {
				return fmt.Errorf("fleet: completion line %d has no key", i+1)
			}
		}
		return nil
	}) {
		return
	}

	c.mu.Lock()
	// A result for a task the generation does not have would count
	// towards its completion; refuse the lot before recording any.
	for _, l := range lines {
		if c.board != nil && hdr.Gen == c.gen && !c.board.has(l.Key) {
			gen := c.gen
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("fleet: completion names task %q, which generation %d does not have", l.Key, gen), http.StatusBadRequest)
			return
		}
	}
	rep := completeReply{Fleet: "complete"}
	switch {
	case c.err != nil:
		rep.Status, rep.Error = statusErr, c.err.Error()
	case c.done:
		rep.Status = statusDone
	case hdr.Gen != c.gen:
		rep.Status = statusGen
	default:
		rep.Status = statusOK
		now := c.opts.now()
		for _, l := range lines {
			if l.Error != "" {
				// Task failures are deterministic (digest mismatches,
				// invalid tasks): retrying elsewhere cannot succeed, so
				// fail the campaign fast.
				c.failLocked(fmt.Errorf("fleet: task %s failed on worker %s: %s", l.Key, hdr.Worker, l.Error))
				rep.Status, rep.Error = statusErr, c.err.Error()
				break
			}
			before := c.stats.Duplicates
			c.board.complete(hdr.Lease, l.Key, l.Data, now)
			rep.Duplicates += c.stats.Duplicates - before
		}
		if rep.Status == statusOK {
			rep.Owned, _ = c.board.owned(hdr.Lease)
			if c.board.done() {
				genResults := c.board.finish()
				c.results = append(c.results, genResults...)
				if err := c.advanceLocked(genResults); err != nil {
					c.failLocked(err)
					rep.Status, rep.Error = statusErr, c.err.Error()
				}
			}
		}
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// Serve runs the coordinator's HTTP server on addr (wire.Serve) until
// the campaign settles or ctx is cancelled, and returns the results.
// After the campaign settles it keeps answering for linger, so workers
// mid-poll get one more reply — the done (or failed) status — and exit
// cleanly instead of dialing a closed port; a cancelled ctx cuts the
// linger short. The bound address (useful with ":0") goes to
// Options.Logf.
func (c *Coordinator) Serve(ctx context.Context, addr string) ([]Result, error) {
	serving, stop := context.WithCancel(ctx)
	defer stop()
	go func() {
		select {
		case <-c.finished:
			select {
			case <-serving.Done():
			case <-time.After(linger):
			}
			stop()
		case <-serving.Done():
		}
	}()
	err := wire.Serve(serving, addr, c.Handler(), func(a net.Addr) { c.opts.Logf("fleet: serving on %s", a) })
	if err != nil {
		return nil, err
	}
	select {
	case <-c.finished:
		return c.Wait(context.Background())
	default:
		return nil, ctx.Err()
	}
}
