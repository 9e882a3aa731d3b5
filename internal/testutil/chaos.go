package testutil

import (
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// ErrKilled is what a KillSwitch returns once it fires — tests match
// on it to tell a deliberate crash from a real failure.
var ErrKilled = errors.New("testutil: worker killed by kill switch")

// KillSwitch simulates a worker crashing after completing a fixed
// number of tasks. Wire Hook into fleet.Worker.BeforeTask: the switch
// lets After tasks through, then returns ErrKilled forever — the
// worker stops mid-lease, holding whatever it had not finished.
type KillSwitch struct {
	after int64
	seen  atomic.Int64
	fired atomic.Bool
}

// NewKillSwitch returns a switch that fires before task after+1.
func NewKillSwitch(after int) *KillSwitch {
	return &KillSwitch{after: int64(after)}
}

// Hook is a fleet.Worker.BeforeTask function.
func (k *KillSwitch) Hook(done int) error {
	if k.seen.Add(1) > k.after {
		k.fired.Store(true)
		return ErrKilled
	}
	return nil
}

// Fired reports whether the switch has killed its worker.
func (k *KillSwitch) Fired() bool { return k.fired.Load() }

// FlakyTransport wraps an http.RoundTripper with deterministic
// faults, for driving a fleet worker's retry path:
//
//   - FailEvery > 0: every FailEvery-th request fails before reaching
//     the server — a connection refused, as a dial *net.OpError that
//     wraps ErrFlaky.
//   - DropReplyEvery > 0: every DropReplyEvery-th request reaches the
//     server and takes full effect there, but its response is
//     discarded and an error returned — the retry then re-delivers a
//     completion the coordinator has already recorded, which is the
//     duplicate-result path.
//   - Delay: added before every delivered request — a slow link.
//
// The two counters are independent, and count only requests the other
// fault let through, so composing them stays deterministic.
type FlakyTransport struct {
	Base           http.RoundTripper
	FailEvery      int
	DropReplyEvery int
	Delay          time.Duration

	sent      atomic.Int64
	delivered atomic.Int64
	// Dropped counts replies discarded after delivery; tests assert it
	// moved to prove the duplicate path actually ran.
	Dropped atomic.Int64
}

// ErrFlaky is the synthetic transport error.
var ErrFlaky = errors.New("testutil: flaky transport fault")

// RoundTrip implements http.RoundTripper.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.sent.Add(1)
	if t.FailEvery > 0 && n%int64(t.FailEvery) == 0 {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrFlaky}
	}
	if t.Delay > 0 {
		time.Sleep(t.Delay)
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	d := t.delivered.Add(1)
	if t.DropReplyEvery > 0 && d%int64(t.DropReplyEvery) == 0 {
		resp.Body.Close()
		t.Dropped.Add(1)
		return nil, ErrFlaky
	}
	return resp, nil
}
