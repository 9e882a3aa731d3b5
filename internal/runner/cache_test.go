package runner

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheMemoises(t *testing.T) {
	var c Cache[string, int]
	calls := 0
	get := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", get)
		if err != nil || v != 42 {
			t.Fatalf("got %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Get("shared", func() (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("got %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
}

func TestCacheForgetsFailures(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	if _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed entry was retained")
	}
	v, err := c.Get("k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after failure: got %d, %v", v, err)
	}
}

func TestCacheLookup(t *testing.T) {
	var c Cache[string, int]
	if _, ok := c.Lookup("absent"); ok {
		t.Fatal("Lookup on empty cache reported a hit")
	}
	if _, err := c.Get("k", func() (int, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Lookup("k")
	if !ok || v != 5 {
		t.Fatalf("Lookup: got %d, %v", v, ok)
	}
}

func TestCacheIndependentKeysDoNotBlock(t *testing.T) {
	var c Cache[int, int]
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Get(1, func() (int, error) { <-release; return 1, nil })
		close(done)
	}()
	// A different key must compute without waiting for key 1.
	v, err := c.Get(2, func() (int, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Fatalf("independent key blocked: got %d, %v", v, err)
	}
	close(release)
	<-done
}

func TestOnceMemoisesValueAndError(t *testing.T) {
	var o Once[int]
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := o.Do(func() (int, error) { calls++; return 11, nil })
		if err != nil || v != 11 {
			t.Fatalf("got %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("Do ran %d times, want 1", calls)
	}

	var fe Once[int]
	boom := errors.New("boom")
	fe.Do(func() (int, error) { return 0, boom })
	if _, err := fe.Do(func() (int, error) { return 1, nil }); !errors.Is(err, boom) {
		t.Fatal("Once must memoise errors")
	}
}

// TestCacheCapForgetsOldestFirst: a bounded cache never holds more than
// Cap entries, pushes the oldest out first, computes a forgotten key
// again, and does not let a failure take up a place.
func TestCacheCapForgetsOldestFirst(t *testing.T) {
	c := Cache[int, int]{Cap: 3}
	computes := map[int]int{}
	get := func(k int) {
		t.Helper()
		v, err := c.Get(k, func() (int, error) { computes[k]++; return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
		if c.Len() > 3 {
			t.Fatalf("Len = %d after Get(%d), cap 3", c.Len(), k)
		}
	}
	boom := errors.New("boom")
	if _, err := c.Get(0, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	for k := 1; k <= 4; k++ {
		get(k)
	}
	// 2, 3, 4 are held: had the failed 0 kept a place, 2 would be gone.
	for _, k := range []int{2, 3, 4} {
		if _, ok := c.Lookup(k); !ok {
			t.Fatalf("key %d was forgotten", k)
		}
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("the oldest key was not the one forgotten")
	}
	get(1) // computes again, pushing 2 out
	get(3)
	if computes[1] != 2 || computes[3] != 1 {
		t.Fatalf("computes = %v: want key 1 twice, key 3 once", computes)
	}
	if _, ok := c.Lookup(2); ok {
		t.Fatal("key 2 outlived three younger entries")
	}
}

// TestCacheCapKeepsFlightsWhole: an entry pushed out while its
// computation runs still answers everyone already waiting on it, and
// its failure does not remove a successor under the same key.
func TestCacheCapKeepsFlightsWhole(t *testing.T) {
	c := Cache[string, int]{Cap: 1}
	release := make(chan struct{})
	started := make(chan struct{})
	boom := errors.New("boom")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Get("a", func() (int, error) { close(started); <-release; return 0, boom })
		if !errors.Is(err, boom) {
			t.Errorf("flight: %v, want boom", err)
		}
	}()
	<-started
	if v, err := c.Get("b", func() (int, error) { return 2, nil }); err != nil || v != 2 { // pushes "a" out
		t.Fatalf("Get(b) = %d, %v", v, err)
	}
	if v, err := c.Get("a", func() (int, error) { return 1, nil }); err != nil || v != 1 { // a successor
		t.Fatalf("Get(a) = %d, %v", v, err)
	}
	close(release)
	wg.Wait()
	if v, ok := c.Lookup("a"); !ok || v != 1 {
		t.Fatalf("the failed flight removed its successor: Lookup(a) = %d, %v", v, ok)
	}
}
