package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"poise/internal/poise"
	"poise/internal/traceio"
)

// The sample log is the service's durable adaptation state: one JSON
// header line, then one Record per line, append-only. Retraining is a
// pure function of the log prefix, so the log *is* the model history —
// replaying it through a fresh service reconverges to the same
// weights. A torn trailing line (a crash mid-append) is tolerated and
// truncated on reopen; corruption anywhere else is an error, because a
// silently skipped record would change what the model trains on.

const (
	logFormat  = "poisesamples"
	logVersion = 1
)

// Record is one ingested trace: its locality signature and the
// training samples derived from it (possibly none, when every kernel
// fell to the admission thresholds — the signature is still logged so
// the ingest history stays complete).
type Record struct {
	Signature traceio.Signature `json:"signature"`
	Samples   []poise.Sample    `json:"samples,omitempty"`
}

type logHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// parseLog splits data into records and reports how many leading bytes
// form the valid prefix. A trailing segment without a newline is a
// torn append: dropped from the records, excluded from keep. Anything
// else that fails to parse is an error.
func parseLog(data []byte) (recs []Record, keep int, err error) {
	rest := data
	line := 0
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail
		}
		raw, lineLen := rest[:nl], nl+1
		rest = rest[lineLen:]
		line++
		if line == 1 {
			var hdr logHeader
			if jerr := json.Unmarshal(raw, &hdr); jerr != nil {
				return nil, 0, fmt.Errorf("bad header: %w", jerr)
			}
			if hdr.Format != logFormat {
				return nil, 0, fmt.Errorf("not a %s log (format %q)", logFormat, hdr.Format)
			}
			if hdr.Version > logVersion {
				return nil, 0, fmt.Errorf("log version %d is newer than this build (%d)", hdr.Version, logVersion)
			}
		} else {
			var rec Record
			if jerr := json.Unmarshal(raw, &rec); jerr != nil {
				return nil, 0, fmt.Errorf("record on line %d: %w", line, jerr)
			}
			recs = append(recs, rec)
		}
		keep += lineLen
	}
	if line == 0 {
		return nil, 0, nil // only a torn header: treat as empty
	}
	return recs, keep, nil
}

// Log is an open append handle on a sample log file.
type Log struct {
	f *os.File
}

// OpenLog opens (creating if needed) the sample log at path for
// appending and returns the records already in it. A torn trailing
// line from a crashed append is truncated away so the next append
// starts on a clean line boundary.
func OpenLog(path string) (*Log, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	var recs []Record
	keep := 0
	if len(data) > 0 {
		recs, keep, err = parseLog(data)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: sample log %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if keep < len(data) {
		if err := f.Truncate(int64(keep)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if keep == 0 {
		hdr, _ := json.Marshal(logHeader{Format: logFormat, Version: logVersion})
		if _, err := f.Write(append(hdr, '\n')); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Log{f: f}, recs, nil
}

// Append writes one record. O_APPEND makes the write atomic with
// respect to position; a crash mid-write leaves a torn line the next
// OpenLog truncates.
func (l *Log) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = l.f.Write(append(data, '\n'))
	return err
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }
