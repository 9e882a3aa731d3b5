package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	fn := func(_ context.Context, i int) (int64, error) {
		// A task whose result depends only on its index (via SubSeed),
		// the contract every experiment task must satisfy.
		return SubSeed(42, int64(i)), nil
	}
	seq, err := Map(context.Background(), 1, 64, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), 8, 64, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestMapEmptyAndNilContext(t *testing.T) {
	got, err := Map(nil, 4, 0, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
	got, err = Map(nil, 4, 3, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(got) != 3 {
		t.Fatalf("nil ctx: got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := Map(context.Background(), workers, 50, func(_ context.Context, i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("task %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		// With one worker the loop stops at the first failure; with many
		// the lowest-indexed failure must still win even if a later one
		// finished first.
		if got := err.Error(); got != "task 3 failed" {
			t.Fatalf("workers=%d: got error %q, want task 3", workers, got)
		}
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("error did not stop the pool: %d tasks started", n)
	}
}

func TestMapHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 10, func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, 10_000, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	<-done
	if n := ran.Load(); n >= 10_000 {
		t.Fatalf("cancellation had no effect: all %d tasks ran", n)
	}
}

func TestMapSlice(t *testing.T) {
	items := []string{"a", "bb", "ccc"}
	got, err := MapSlice(context.Background(), 2, items, func(_ context.Context, i int, s string) (int, error) {
		return len(s) + i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNumWorkers(t *testing.T) {
	if NumWorkers(0) < 1 {
		t.Fatal("NumWorkers(0) must be positive")
	}
	if NumWorkers(-3) < 1 {
		t.Fatal("NumWorkers(-3) must be positive")
	}
	if NumWorkers(7) != 7 {
		t.Fatal("explicit worker counts pass through")
	}
}

func TestSubSeedDeterministicAndDecorrelated(t *testing.T) {
	if SubSeed(1, 0) != SubSeed(1, 0) {
		t.Fatal("SubSeed is not a pure function")
	}
	seen := map[int64]bool{}
	for id := int64(0); id < 1000; id++ {
		s := SubSeed(7, id)
		if seen[s] {
			t.Fatalf("collision at id %d", id)
		}
		seen[s] = true
	}
	if SubSeed(1, 5) == SubSeed(2, 5) {
		t.Fatal("different bases must give different streams")
	}
}
