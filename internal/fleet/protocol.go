package fleet

import "encoding/json"

// The wire protocol is HTTP carrying the JSONL container the plan files
// use, written and read by the same code (gridplan.WriteLines,
// gridplan.Lines): one JSON header line, then one record per line, with
// counts in the header detecting truncated transfers.
//
//	GET  /v1/plan      -> plan envelope line, then the raw plan JSONL
//	POST /v1/lease     <- lease request; -> lease envelope line, then
//	                      one task line per granted task
//	POST /v1/complete  <- completion header line, then one result line
//	                      per finished task; -> completion reply
//
// Workers push each result as soon as its task finishes (streamed
// partials), so the coordinator's progress view is per task: steals
// take only genuinely unstarted work, and a worker killed mid-lease
// loses at most the task it was running.

// Lease and completion statuses.
const (
	statusOK   = "ok"   // lease granted / completion accepted
	statusWait = "wait" // nothing grantable now; poll again
	statusGen  = "gen"  // worker's generation is stale; refetch the plan
	statusDone = "done" // campaign complete; worker may exit
	statusErr  = "error"
)

// planEnvelope is the first line of a /v1/plan response; the raw plan
// JSONL (a profile or cell plan, per Format) follows when Done is
// false.
type planEnvelope struct {
	Fleet  string `json:"fleet"` // "plan"
	Gen    int    `json:"gen"`
	Format string `json:"format"`
	Done   bool   `json:"done"`
	Error  string `json:"error,omitempty"`
}

// leaseRequest is a /v1/lease POST body.
type leaseRequest struct {
	Worker string `json:"worker"`
	Gen    int    `json:"gen"`
}

// leaseReply is the first line of a /v1/lease response; Count task
// lines follow on statusOK, aligned with Keys.
type leaseReply struct {
	Fleet      string   `json:"fleet"` // "lease"
	Status     string   `json:"status"`
	Gen        int      `json:"gen"`
	Lease      string   `json:"lease,omitempty"`
	DeadlineMS int64    `json:"deadlineMS,omitempty"`
	Count      int      `json:"count"`
	Keys       []string `json:"keys,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// completeHeader is the first line of a /v1/complete POST body; Count
// result lines follow.
type completeHeader struct {
	Worker string `json:"worker"`
	Gen    int    `json:"gen"`
	Lease  string `json:"lease"`
	Count  int    `json:"count"`
}

// resultLine is one streamed task result. Error marks a task the
// worker could not execute; task failures are deterministic, so one
// fails the campaign.
type resultLine struct {
	Key   string          `json:"key"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error string          `json:"error,omitempty"`
}

// completeReply acknowledges a completion batch. Owned lists the keys
// the lease still holds (grant order); a key the worker meant to run
// next that is absent was stolen and must be skipped. Owned empty —
// including when the lease itself was expired — means the worker
// should request a fresh lease.
type completeReply struct {
	Fleet      string   `json:"fleet"` // "complete"
	Status     string   `json:"status"`
	Owned      []string `json:"owned,omitempty"`
	Duplicates int      `json:"duplicates,omitempty"`
	Error      string   `json:"error,omitempty"`
}
