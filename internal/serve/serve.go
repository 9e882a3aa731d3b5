// Package serve is Poise's decision service: the request-path face of
// the repo, where everything else is the batch path. The paper's
// deliverable is tiny — trained GLM weights plus a per-workload static
// policy table — and this package serves it: a Decider answers
// "feature vector → (N, p)" from many concurrent callers with zero
// steady-state allocations, memoising per-workload decisions keyed by
// trace-signature digests; a Server exposes the decision path over
// HTTP+JSONL (/decide, /table, /ingest, /stats) over internal/wire,
// the transport the fleet uses too (bounded request bodies, backoff
// client, graceful shutdown); and a Retrainer closes the online-adaptation
// loop — ingested traces append to a versioned sample log and fold
// into poise.Train, hot-swapping the active weights atomically while
// in-flight decisions drain on the old model.
//
// Determinism contract: retraining is a pure function of the sample
// log prefix, so a fixed ingest order yields an identical final
// weights file regardless of how the background retrainer batches the
// work — and a restart over the same log reconverges to the same
// model.
package serve

// Stats is the service's counter snapshot, served by /stats.
type Stats struct {
	// Decisions served (memoised or not), and the table-cache split.
	Decisions   int64 `json:"decisions"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// Tables is how many decision tables the active model memoises
	// (bounded; a retrain starts over at zero).
	Tables int64 `json:"tables"`

	// Online-adaptation loop.
	IngestedRecords int64 `json:"ingestedRecords"`
	TotalSamples    int64 `json:"totalSamples"`
	Retrains        int64 `json:"retrains"`
	RetrainErrors   int64 `json:"retrainErrors"`

	// WeightsVersion counts hot-swaps: 1 is the boot model, each
	// successful retrain increments it.
	WeightsVersion int64 `json:"weightsVersion"`

	// Decision latency over the service lifetime, at log2-bucket
	// resolution (an upper bound of the bucket the quantile lands in).
	P50LatencyNS int64 `json:"p50LatencyNS"`
	P99LatencyNS int64 `json:"p99LatencyNS"`
}
