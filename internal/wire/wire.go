// Package wire is the HTTP transport the decision service
// (internal/serve) and the fleet (internal/fleet) share: one retrying
// request, one serve loop and one bounded read of a request body. What
// the bodies hold is gridplan's counted JSONL container; this package
// only moves them.
package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Attempts is how many times Do sends one request before it gives up.
// With the backoff (50 ms, doubling to 1 s) that is about six seconds,
// enough to ride out a server that is still binding its port.
const Attempts = 10

// Timeout bounds one attempt when Do is given no client. It is long
// because a raw-trace /ingest sweeps every kernel before it replies.
const Timeout = 5 * time.Minute

// What a second delivery of a request does, Do's last argument.
const (
	// Idempotent: the server ends as one delivery leaves it (a decision,
	// a lease the coordinator repairs, a completion it deduplicates), so
	// every transport error is retried.
	Idempotent = true
	// Once: the server acts on every delivery (an /ingest appends a
	// record), so only a request refused at dial, which the server never
	// saw, is sent again.
	Once = false
)

// Do sends body to base+path and returns the body of its 200 reply. A
// transport error backs off and tries again, up to Attempts sends, but a
// request that is not idempotent is retried only when it was refused at
// dial: a dropped reply or a timeout may come after the server acted. A
// reply other than 200 fails at once with its status and text, because
// the server answered and the request itself is wrong. A nil hc means a
// client with Timeout.
func Do(ctx context.Context, hc *http.Client, method, base, path string, body []byte, idempotent bool) ([]byte, error) {
	if hc == nil {
		hc = &http.Client{Timeout: Timeout}
	}
	url := strings.TrimRight(base, "/") + path
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, time.Second)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err == nil {
			var data []byte
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case err == nil && resp.StatusCode != http.StatusOK:
				return nil, fmt.Errorf("wire: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
			case err == nil:
				return data, nil
			}
		}
		if !idempotent && !refused(err) {
			return nil, fmt.Errorf("wire: %s %s: %w", method, path, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wire: %s %s: giving up after %d attempts: %w", method, path, Attempts, lastErr)
}

// refused reports whether err came from dialling the server, before any
// byte of the request was sent.
func refused(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// headerTimeout is how long Serve waits for a request's headers: a
// client that connects and never finishes them is cut off then instead
// of holding its connection open for good.
const headerTimeout = 5 * time.Second

// Serve serves h on addr until ctx is done or the listener fails, then
// shuts the server down, giving requests in flight 2 s to finish. The
// bound address (useful with ":0") goes to listening before the first
// request is served. A cancelled ctx is a clean stop: Serve returns nil.
func Serve(ctx context.Context, addr string, h http.Handler, listening func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	listening(ln.Addr())
	srv := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout}
	// srv.Serve returns once, a listener failure or ErrServerClosed after
	// Shutdown; the buffer takes the latter when nobody is receiving.
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err = <-served:
	}
	drain, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = srv.Shutdown(drain) // a request still running past the drain is not waited for
	return err
}

// Decode hands decode the body of r, bounded at limit bytes. When decode
// fails, Decode answers the request with the error, 413 if the body ran
// past limit and 400 otherwise, and returns false.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, decode func(io.Reader) error) bool {
	err := decode(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}
