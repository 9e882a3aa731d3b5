package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"poise/internal/gridplan"
	"poise/internal/wire"
)

// Client talks to a decision service through wire.Do: every request
// but /ingest is retried after any transport error, and an /ingest only
// when it was refused at dial, because the service appends a record on
// every delivery.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:9666".
	Base string
	// HTTP is the underlying client (nil = wire.Do's default).
	HTTP *http.Client
}

// Decide resolves a batch of feature vectors in one round trip,
// preserving order.
func (c *Client) Decide(ctx context.Context, reqs []DecideRequest) ([]DecideReply, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, req := range reqs {
		if err := enc.Encode(req); err != nil {
			return nil, err
		}
	}
	data, err := wire.Do(ctx, c.HTTP, http.MethodPost, c.Base, "/decide", body.Bytes(), wire.Idempotent)
	if err != nil {
		return nil, err
	}
	return decodeDecide(data, len(reqs))
}

// decodeDecide reads a /decide reply to want requests: a header whose
// count is want, then exactly want lines, none blank.
func decodeDecide(data []byte, want int) ([]DecideReply, error) {
	l := gridplan.NewLines(bytes.NewReader(data))
	var hdr decideHeader
	if err := l.Exact(&hdr); err != nil {
		return nil, fmt.Errorf("serve: decide reply header: %w", err)
	}
	if hdr.Serve != "decide" {
		return nil, fmt.Errorf("serve: unexpected reply kind %q", hdr.Serve)
	}
	if hdr.Count != want {
		return nil, fmt.Errorf("serve: decide reply counts %d lines for %d requests", hdr.Count, want)
	}
	replies, err := gridplan.ReadCounted[DecideReply](l, want)
	if err != nil {
		return nil, fmt.Errorf("serve: decide reply %w", err)
	}
	return replies, nil
}

// IngestRecord submits a pre-characterised record.
func (c *Client) IngestRecord(ctx context.Context, rec Record) (IngestReply, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return IngestReply{}, err
	}
	return c.ingest(ctx, body)
}

// IngestTrace submits a raw poisetrace container (optionally gzipped).
func (c *Client) IngestTrace(ctx context.Context, raw []byte) (IngestReply, error) {
	return c.ingest(ctx, raw)
}

func (c *Client) ingest(ctx context.Context, body []byte) (IngestReply, error) {
	data, err := wire.Do(ctx, c.HTTP, http.MethodPost, c.Base, "/ingest", body, wire.Once)
	if err != nil {
		return IngestReply{}, err
	}
	var rep IngestReply
	if err := json.Unmarshal(bytes.TrimSpace(data), &rep); err != nil {
		return IngestReply{}, fmt.Errorf("serve: ingest reply: %w", err)
	}
	return rep, nil
}

// Table fetches the static policy table text.
func (c *Client) Table(ctx context.Context) (string, error) {
	data, err := wire.Do(ctx, c.HTTP, http.MethodGet, c.Base, "/table", nil, wire.Idempotent)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	data, err := wire.Do(ctx, c.HTTP, http.MethodGet, c.Base, "/stats", nil, wire.Idempotent)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(bytes.TrimSpace(data), &st); err != nil {
		return Stats{}, fmt.Errorf("serve: stats reply: %w", err)
	}
	return st, nil
}
