package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"poise/internal/gridplan"
)

// Client talks to a decision service with the fleet worker's transport
// discipline: connection-level errors retry with exponential backoff
// (a service still binding its port, a reply dropped mid-transfer),
// HTTP-level errors fail immediately — the service answered, so the
// request itself is wrong. Every request here is idempotent except
// /ingest, whose retry on a *connection* error is still safe: the
// request never reached the service.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:9666".
	Base string
	// HTTP is the underlying client (nil = 30s timeout default).
	HTTP *http.Client
	// Retries bounds transport attempts (<= 0 means 10).
	Retries int
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
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
	data, err := c.do(ctx, http.MethodPost, "/decide", body.Bytes())
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
	replies := make([]DecideReply, want)
	for i := range replies {
		if err := l.Exact(&replies[i]); err != nil {
			return nil, fmt.Errorf("serve: decide reply line %d/%d: %w", i+1, want, err)
		}
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
	data, err := c.do(ctx, http.MethodPost, "/ingest", body)
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
	data, err := c.do(ctx, http.MethodGet, "/table", nil)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	data, err := c.do(ctx, http.MethodGet, "/stats", nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(bytes.TrimSpace(data), &st); err != nil {
		return Stats{}, fmt.Errorf("serve: stats reply: %w", err)
	}
	return st, nil
}

func (c *Client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	retries := c.Retries
	if retries <= 0 {
		retries = 10
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < retries; attempt++ {
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
		req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := c.client().Do(req)
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
			return nil, fmt.Errorf("serve: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
		}
		return data, nil
	}
	return nil, fmt.Errorf("serve: %s %s: giving up after %d attempts: %w", method, path, retries, lastErr)
}
