package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"poise/internal/testutil"
)

// TestDoRetriesWhatIsSafeToRepeat: Do over a faulty transport. Each case
// sends calls requests; the last one's outcome and the number of
// requests the server saw are what it checks.
func TestDoRetriesWhatIsSafeToRepeat(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ft         *testutil.FlakyTransport // nil = a faultless one
		status     int                      // the server's answer
		idempotent bool
		calls      int
		timeout    time.Duration // of the last call's context, 0 = none
		delivered  int64
		err        string // "" = the last call succeeds
		errIs      error
	}{
		// The second request is refused at dial and sent again.
		{name: "refused before send", ft: &testutil.FlakyTransport{FailEvery: 2},
			idempotent: Once, calls: 2, delivered: 2},
		// The second reply is lost after the server acted; asking again
		// is safe, so the call succeeds on the third delivery.
		{name: "dropped reply, idempotent", ft: &testutil.FlakyTransport{DropReplyEvery: 2},
			idempotent: Idempotent, calls: 2, delivered: 3},
		// The same loss on a request the server acts on each time: one
		// delivery, then the error.
		{name: "dropped reply, once", ft: &testutil.FlakyTransport{DropReplyEvery: 2},
			idempotent: Once, calls: 2, delivered: 2, errIs: testutil.ErrFlaky},
		{name: "non-200", status: http.StatusBadRequest,
			idempotent: Idempotent, calls: 1, delivered: 1, err: "POST /x: 400 Bad Request: no such thing"},
		// Every send is refused; the deadline falls in the first backoff.
		{name: "context cancelled during backoff", ft: &testutil.FlakyTransport{FailEvery: 1},
			idempotent: Idempotent, calls: 1, timeout: 10 * time.Millisecond, errIs: context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var delivered atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				delivered.Add(1)
				if tc.status != 0 {
					http.Error(w, "no such thing", tc.status)
					return
				}
				w.Write([]byte("ok"))
			}))
			defer srv.Close()
			if tc.ft == nil {
				tc.ft = &testutil.FlakyTransport{}
			}
			tc.ft.Base = srv.Client().Transport
			hc := &http.Client{Transport: tc.ft}

			var data []byte
			var err error
			for i := 0; i < tc.calls; i++ {
				ctx := context.Background()
				if i == tc.calls-1 && tc.timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.timeout)
					defer cancel()
				}
				data, err = Do(ctx, hc, http.MethodPost, srv.URL+"/", "/x", []byte("body"), tc.idempotent)
			}
			switch {
			case tc.err == "" && tc.errIs == nil && (err != nil || string(data) != "ok"):
				t.Errorf("reply %q, %v; want ok", data, err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Errorf("error %v, want one containing %q", err, tc.err)
			case tc.errIs != nil && !errors.Is(err, tc.errIs):
				t.Errorf("error %v, want one that is %v", err, tc.errIs)
			}
			if got := delivered.Load(); got != tc.delivered {
				t.Errorf("the server saw %d requests, want %d", got, tc.delivered)
			}
		})
	}
}

// TestServeCutsOffSlowHeaders: a client that sends half a request and
// then nothing has its connection closed once the header timeout runs
// out, instead of holding it open for good.
func TestServeCutsOffSlowHeaders(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bound := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, "127.0.0.1:0", http.NotFoundHandler(), func(a net.Addr) { bound <- a })
	}()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", (<-bound).String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(headerTimeout + 3*time.Second))
	_, err = io.ReadAll(conn)
	if elapsed := time.Since(start); err != nil {
		t.Fatalf("the half-sent request's connection was still open after %v: %v", elapsed.Round(time.Millisecond), err)
	}
}
