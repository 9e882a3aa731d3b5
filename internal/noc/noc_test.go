package noc

import (
	"math/rand"
	"testing"

	"poise/internal/config"
)

func TestRequestLatencyUnloaded(t *testing.T) {
	x := New(config.Default().Scale(2))
	got := x.Request(0, 100)
	// One flit time (2 cycles) + base latency (8).
	if got != 100+2+8 {
		t.Fatalf("arrival = %d, want 110", got)
	}
	if x.ReqFlits != 1 {
		t.Fatal("flit accounting")
	}
}

func TestRequestQueueing(t *testing.T) {
	x := New(config.Default().Scale(2))
	a := x.Request(0, 100)
	b := x.Request(0, 100) // same cycle, same port: serialised
	if b <= a {
		t.Fatal("same-port requests must serialise")
	}
	if x.QueueDelay == 0 {
		t.Fatal("queue delay must be recorded")
	}
	// A different SM's port is independent.
	y := New(config.Default().Scale(2))
	y.Request(0, 100)
	c := y.Request(1, 100)
	if c != 110 {
		t.Fatalf("independent port delayed: %d", c)
	}
}

func TestResponseSerialisesFlits(t *testing.T) {
	x := New(config.Default().Scale(2))
	one := x.Response(0, 100, 1)
	x2 := New(config.Default().Scale(2))
	four := x2.Response(0, 100, 4)
	if four-one != 3*2 {
		t.Fatalf("4 flits must take 3 extra beats: %d vs %d", four, one)
	}
	// Zero flits clamp to one.
	x3 := New(config.Default().Scale(2))
	if x3.Response(0, 100, 0) != one {
		t.Fatal("flit clamp")
	}
}

func TestReset(t *testing.T) {
	x := New(config.Default().Scale(2))
	x.Request(0, 100)
	x.Response(0, 500, 4)
	x.Reset()
	if x.ReqFlits != 0 || x.RespFlits != 0 || x.QueueDelay != 0 {
		t.Fatal("reset must clear stats")
	}
	if got := x.Request(0, 100); got != 110 {
		t.Fatalf("reset must clear port state: %d", got)
	}
}

// TestResponsesToOneSMStrictlyIncrease is the property the simulator's
// per-SM fill queues rest on: whatever cycles the payloads become ready
// on the memory side — later, equal or earlier than the one before —
// successive deliveries to one SM are strictly later than each other,
// because each occupies the SM's response port for at least one flit
// time. Other SMs' traffic does not enter into it.
func TestResponsesToOneSMStrictlyIncrease(t *testing.T) {
	for _, perFlit := range []int{1, 2, 5} {
		cfg := config.Default().Scale(4)
		cfg.NoCCyclesPerFl = perFlit
		x := New(cfg)
		rng := rand.New(rand.NewSource(int64(perFlit)))
		last := make([]int64, cfg.NumSMs)
		for i := 0; i < 5000; i++ {
			sm := rng.Intn(cfg.NumSMs)
			now := int64(rng.Intn(3000)) // any order at all
			got := x.Response(sm, now, rng.Intn(6))
			if got <= last[sm] {
				t.Fatalf("%d cycles/flit, response %d: SM %d served at %d after %d", perFlit, i, sm, got, last[sm])
			}
			if got < now+int64(cfg.NoCLatency)+int64(perFlit) {
				t.Fatalf("%d cycles/flit, response %d: ready at %d, delivered at %d", perFlit, i, now, got)
			}
			last[sm] = got
		}
	}
}
