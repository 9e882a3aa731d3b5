// Package fleet runs gridplan campaigns across long-lived worker
// processes: a coordinator loads a plan (profile sweep, experiment
// cell grid, or refinement rounds), serves leases of task
// batches over HTTP+JSONL, collects streamed partial results, and
// repairs imbalance and failure by reassigning expired leases and
// stealing unstarted tasks from loaded workers for idle ones.
//
// The package adds scheduling, not semantics: workers wrap the
// existing executors (profile.RunTasks, Harness.RunCellTasks) and the
// coordinator assembles results through the same merge code the
// in-process runs end in, so a fleet run is byte-identical to the
// single-process run. That guarantee holds under every failure the
// protocol tolerates, because each task's result is a pure function of
// the task itself (the plan carries content digests; the simulator is
// deterministic): a task that runs twice — stolen while in flight,
// retried after a dropped reply, re-leased after its worker died —
// produces identical bytes, so first-result-wins deduplication cannot
// change the merged output.
//
// Failure model:
//
//   - Worker death: every lease carries a deadline; a lease whose
//     worker stops completing tasks past the deadline is expired and
//     its unfinished tasks return to the queue. Completions renew the
//     deadline, so a slow-but-alive worker is never expired while it
//     makes progress (each task must finish within one TTL).
//   - Stragglers: an idle worker with an empty queue steals the tail
//     half of the largest lease (grant order — the tasks least likely
//     to have started), provided it holds at least stealMin tasks.
//   - Duplicates: completions for an already-recorded task are counted
//     and dropped; completions for a forgotten lease still record
//     their results (they are correct — see above).
//   - Task errors are deterministic (digest mismatches, invalid
//     plans), so a worker-reported task error fails the whole campaign
//     fast rather than retrying.
package fleet

import "time"

// Options tunes the coordinator's lease scheduling. The zero value
// selects defaults suitable for simulation tasks that run in seconds.
type Options struct {
	// LeaseTasks is the maximum tasks granted per lease (default 8).
	LeaseTasks int
	// LeaseTTL is the lease deadline: a lease that completes no task
	// for this long is expired and its tasks are requeued (default
	// 1m). Every completion renews the deadline.
	LeaseTTL time.Duration
	// Logf, when set, receives progress lines (lease grants, expiries,
	// steals, generation advances).
	Logf func(format string, args ...any)

	// now overrides the clock in tests.
	now func() time.Time
}

// stealMin is the smallest pending-task count a lease must hold to be
// stolen from, so a lease running its final task is left alone.
const stealMin = 2

func (o Options) withDefaults() Options {
	if o.LeaseTasks <= 0 {
		o.LeaseTasks = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Stats counts the scheduling events of a campaign. CI and tests
// assert on them (a chaos round-trip must actually have expired a
// lease and stolen a batch to prove anything).
type Stats struct {
	Tasks         int // total tasks across all generations
	Generations   int // plan generations served
	Granted       int // leases granted (fresh-queue and stolen alike)
	Expired       int // leases expired past their deadline
	StolenBatches int // leases granted by stealing from another lease
	StolenTasks   int // tasks moved by those steals
	Duplicates    int // completions dropped because the task was already done
}
