package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"poise/internal/testutil"
)

// decideReply is a well-formed reply to two requests.
const decideReply = `{"serve":"decide","count":2,"version":1}
{"n":4,"p":2,"version":1}
{"n":3,"p":3,"version":1}
`

// TestDecideRefusesHostileReplies: Client.Decide answers two requests
// with two replies or an error, whatever the service sends back. A
// negative count used to panic in make, and a count below the batch
// returned fewer replies than requests with a nil error.
func TestDecideRefusesHostileReplies(t *testing.T) {
	reqs := []DecideRequest{{X: testVector(1)}, {X: testVector(2)}}
	for _, tc := range []struct {
		name, body, err string
	}{
		{"well formed", decideReply, ""},
		{"negative count", `{"serve":"decide","count":-1}` + "\n", "counts -1 lines for 2"},
		{"zero count", `{"serve":"decide","count":0}` + "\n", "counts 0 lines for 2"},
		{"count short of the batch", `{"serve":"decide","count":1}` + "\n" + `{"n":4,"p":2}` + "\n", "counts 1 lines for 2"},
		{"count past the batch", strings.Replace(decideReply, `"count":2`, `"count":3`, 1), "counts 3 lines for 2"},
		{"missing line", strings.Join(strings.SplitAfter(decideReply, "\n")[:2], ""), "line 2/2: unexpected EOF"},
		{"blank line", strings.Replace(decideReply, "}\n{", "}\n\n{", 1), "line 1/2: unexpected end of JSON input"},
		{"blank header", "\n" + decideReply, "reply header"},
		{"empty", "", "reply header: unexpected EOF"},
		{"wrong kind", strings.Replace(decideReply, `"decide"`, `"complete"`, 1), `kind "complete"`},
		{"bad line", strings.Replace(decideReply, `{"n":3`, `{"n":"three"`, 1), "line 2/2"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, tc.body)
		}))
		c := &Client{Base: ts.URL, HTTP: ts.Client()}
		replies, err := c.Decide(context.Background(), reqs)
		ts.Close()
		switch {
		case tc.err == "" && (err != nil || len(replies) != len(reqs)):
			t.Errorf("%s: %d replies, %v", tc.name, len(replies), err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: %d replies, error %v, want one containing %q", tc.name, len(replies), err, tc.err)
		}
	}
}

// TestDecideRetriesADroppedReply: a reply lost after the service acted
// on it is fetched again, and the client returns what a clean one does.
// The requests carry no key, so the service's memo cannot tell a retry
// from a first call by its Cached flag.
func TestDecideRetriesADroppedReply(t *testing.T) {
	batches := make([][]DecideRequest, 6)
	for i := range batches {
		batches[i] = []DecideRequest{{X: testVector(i)}, {X: testVector(i + 1), MaxN: 8 + i}}
	}
	run := func(c *Client) [][]DecideReply {
		var out [][]DecideReply
		for _, reqs := range batches {
			replies, err := c.Decide(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, replies)
		}
		return out
	}
	_, clean := newTestServer(t, Config{Weights: testWeights()})
	_, flaky := newTestServer(t, Config{Weights: testWeights()})
	ft := &testutil.FlakyTransport{Base: flaky.HTTP.Transport, DropReplyEvery: 2}
	flaky.HTTP = &http.Client{Transport: ft}
	want, got := run(clean), run(flaky)
	if ft.Dropped.Load() == 0 {
		t.Fatal("no reply was dropped")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("through dropped replies:\n %+v\nclean:\n %+v", got, want)
	}
}

// TestIngestIsSentOnce: the service appends a record on every /ingest it
// reads, so n calls leave at most n records. A reply dropped after the
// append fails its call instead of sending the record again; a request
// refused at dial never reached the service and is sent again.
func TestIngestIsSentOnce(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name   string
		ft     *testutil.FlakyTransport
		failed int // calls that return an error
	}{
		{"dropped replies", &testutil.FlakyTransport{DropReplyEvery: 2}, n / 2},
		{"refused dials", &testutil.FlakyTransport{FailEvery: 2}, 0},
	} {
		s, c := newTestServer(t, Config{Weights: testWeights(), Retrain: RetrainOptions{Min: 1 << 20}})
		tc.ft.Base = c.HTTP.Transport
		c.HTTP = &http.Client{Transport: tc.ft}
		failed := 0
		for i := 0; i < n; i++ {
			if _, err := c.IngestRecord(context.Background(), synthRecord(i, 4)); err != nil {
				if !errors.Is(err, testutil.ErrFlaky) {
					t.Fatalf("%s: %v", tc.name, err)
				}
				failed++
			}
		}
		s.Flush()
		if st := s.Stats(); st.IngestedRecords != n || failed != tc.failed {
			t.Errorf("%s: %d calls left %d records with %d failed, want %d records and %d failed",
				tc.name, n, st.IngestedRecords, failed, n, tc.failed)
		}
	}
}

// FuzzDecideReply: for any reply bytes, decoding a reply to want
// requests returns an error or exactly want replies, and never panics.
func FuzzDecideReply(f *testing.F) {
	f.Add([]byte(decideReply), uint8(2))
	f.Add([]byte(`{"serve":"decide","count":-1}`+"\n"), uint8(2))
	f.Add([]byte(`{"serve":"decide","count":1}`+"\n"+`{"n":4,"p":2}`+"\n"), uint8(2))
	f.Add([]byte(strings.Replace(decideReply, "}\n{", "}\n\n{", 1)), uint8(2))
	f.Add([]byte(`{"serve":"decide","count":0}`+"\n"), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, want uint8) {
		replies, err := decodeDecide(data, int(want))
		if err == nil && len(replies) != int(want) {
			t.Fatalf("%d replies for %d requests and no error", len(replies), want)
		}
	})
}
