package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records one span per call the benchmark makes across a layer
// boundary. Spans live in memory until the run ends and are then
// written as Chrome trace-event JSON (open in Perfetto or
// chrome://tracing). A nil *tracer records nothing, so the untraced
// run executes the same code with the spans compiled down to a nil
// check.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []spanRec
	workload string
	pass     int
}

// spanRec is one finished (or still open, End == 0) span. Times are
// nanoseconds since the tracer started.
type spanRec struct {
	ID, Parent int // Parent is -1 for a root span
	Name       string
	Lane       int // goroutine lane: 0 is the driver, 1.. are fleet workers
	Start, End int64
	Workload   string
	Pass       int
	Counts     map[string]float64
}

// span is the handle begin returns; the zero span (from a nil tracer)
// is inert.
type span struct {
	tr *tracer
	id int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, pass: -1}
}

// setPass tags the spans that follow with a pass id (-1 = set-up or
// probe stage).
func (tr *tracer) setPass(p int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.pass = p
	tr.mu.Unlock()
}

// begin opens a span named "layer.Func" under parent on the driver's
// lane.
func (tr *tracer) begin(parent span, name string) span {
	return tr.beginLane(parent, name, 0)
}

func (tr *tracer) beginLane(parent span, name string, lane int) span {
	if tr == nil {
		return span{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	pid := -1
	if parent.tr != nil {
		pid = parent.id
		if lane == 0 {
			lane = tr.spans[pid].Lane
		}
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, spanRec{
		ID: id, Parent: pid, Name: name, Lane: lane,
		Workload: tr.workload, Pass: tr.pass,
		Start: int64(time.Since(tr.t0)),
	})
	return span{tr, id}
}

// end closes the span.
func (s span) end() {
	if s.tr == nil {
		return
	}
	now := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.spans[s.id].End = now
}

// count attaches a count measured at this boundary (cycles simulated,
// bytes moved, ...) to the span.
func (s span) count(key string, v float64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	r := &s.tr.spans[s.id]
	if r.Counts == nil {
		r.Counts = map[string]float64{}
	}
	r.Counts[key] += v
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []spanRec {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]spanRec(nil), tr.spans...)
}

// durations returns the duration in nanoseconds of every finished span
// called name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.snapshot() {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover. Children on different
// lanes may overlap, so covered time is the union of their intervals
// clipped to the parent; self time is therefore never negative.
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of the per-layer span table.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// layerTable aggregates spans by name, ordered by self time.
func layerTable(spans []spanRec) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, layerRow{Name: s.Name})
		}
		rows[j].Calls++
		rows[j].TotalMs += float64(s.End-s.Start) / 1e6
		rows[j].SelfMs += float64(self[i]) / 1e6
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfMs > rows[b].SelfMs })
	return rows
}

// traceEvent is one Chrome trace-event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeChromeTrace writes the finished spans to path.
func writeChromeTrace(path string, spans []spanRec) error {
	self := selfTimes(spans)
	tf := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	for i, s := range spans {
		if s.End == 0 {
			continue
		}
		args := map[string]any{
			"id": s.ID, "parent": s.Parent, "workload": s.Workload,
			"pass": s.Pass, "self_us": float64(self[i]) / 1e3,
		}
		for k, v := range s.Counts {
			args[k] = v
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
