package fleet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeClock drives the board's lazy expiry deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testUnits(n int) []unit {
	units := make([]unit, n)
	for i := range units {
		key := fmt.Sprintf("k%03d", i)
		units[i] = unit{key: key, line: json.RawMessage(fmt.Sprintf(`{"task":%q}`, key))}
	}
	return units
}

func testBoard(n int, opts Options) (*board, *fakeClock, *Stats) {
	clk := newFakeClock()
	opts.now = clk.now
	stats := &Stats{}
	return newBoard(testUnits(n), opts.withDefaults(), stats), clk, stats
}

func leaseKeys(l *lease) []string {
	keys := make([]string, len(l.pending))
	for i, u := range l.pending {
		keys[i] = u.key
	}
	return keys
}

func TestBoardGrantsKeyOrderedBatches(t *testing.T) {
	b, clk, _ := testBoard(10, Options{LeaseTasks: 4})
	l1, live := b.grant("w1", clk.now())
	if !live || l1 == nil {
		t.Fatal("first grant must succeed")
	}
	if want := []string{"k000", "k001", "k002", "k003"}; !reflect.DeepEqual(leaseKeys(l1), want) {
		t.Fatalf("lease 1 keys %v, want %v", leaseKeys(l1), want)
	}
	l2, _ := b.grant("w2", clk.now())
	if want := []string{"k004", "k005", "k006", "k007"}; !reflect.DeepEqual(leaseKeys(l2), want) {
		t.Fatalf("lease 2 keys %v, want %v", leaseKeys(l2), want)
	}
	l3, _ := b.grant("w3", clk.now())
	if want := []string{"k008", "k009"}; !reflect.DeepEqual(leaseKeys(l3), want) {
		t.Fatalf("lease 3 keys %v, want %v", leaseKeys(l3), want)
	}
}

func TestBoardStealsTailHalfOfLargestLease(t *testing.T) {
	b, clk, stats := testBoard(6, Options{LeaseTasks: 6})
	l1, _ := b.grant("w1", clk.now())
	if len(l1.pending) != 6 {
		t.Fatalf("w1 got %d tasks, want all 6", len(l1.pending))
	}
	// Queue is empty: w2's grant must steal the tail half of w1's lease.
	l2, live := b.grant("w2", clk.now())
	if !live || l2 == nil {
		t.Fatal("steal grant must succeed")
	}
	if want := []string{"k003", "k004", "k005"}; !reflect.DeepEqual(leaseKeys(l2), want) {
		t.Fatalf("stolen keys %v, want tail half %v", leaseKeys(l2), want)
	}
	if want := []string{"k000", "k001", "k002"}; !reflect.DeepEqual(leaseKeys(l1), want) {
		t.Fatalf("victim keeps %v, want head half %v", leaseKeys(l1), want)
	}
	if stats.StolenBatches != 1 || stats.StolenTasks != 3 {
		t.Fatalf("stats = %+v, want 1 stolen batch of 3", *stats)
	}
	// Steal again: victim is now w1 (3 pending) vs w2 (3 pending); tie
	// breaks to the lower lease id, deterministically.
	l3, _ := b.grant("w3", clk.now())
	if want := []string{"k002"}; !reflect.DeepEqual(leaseKeys(l3), want) {
		t.Fatalf("second steal %v, want %v from the lower lease id", leaseKeys(l3), want)
	}
}

func TestBoardStealLeavesSmallLeasesAlone(t *testing.T) {
	b, clk, _ := testBoard(2, Options{LeaseTasks: 2})
	l1, _ := b.grant("w1", clk.now())
	b.complete(l1.id, "k000", json.RawMessage(`1`), clk.now())
	// w1 holds one pending task — below stealMin, so w2 must wait.
	if l2, live := b.grant("w2", clk.now()); l2 != nil || !live {
		t.Fatalf("grant = (%v, %v), want a wait", l2, live)
	}
}

func TestBoardExpiryRequeuesAndCompletionRenews(t *testing.T) {
	ttl := time.Minute
	b, clk, stats := testBoard(4, Options{LeaseTasks: 2, LeaseTTL: ttl})
	l1, _ := b.grant("w1", clk.now())
	b.grant("w2", clk.now())
	// w1 completes one task just before the deadline: its lease renews.
	clk.advance(ttl - time.Second)
	b.complete(l1.id, "k000", json.RawMessage(`1`), clk.now())
	// w2 completed nothing: one more second passes the original
	// deadline, and the next grant expires w2's lease and requeues it.
	clk.advance(2 * time.Second)
	l3, live := b.grant("w3", clk.now())
	if !live || l3 == nil {
		t.Fatal("w3 must get the expired tasks")
	}
	if want := []string{"k002", "k003"}; !reflect.DeepEqual(leaseKeys(l3), want) {
		t.Fatalf("w3 got %v, want w2's expired tasks %v", leaseKeys(l3), want)
	}
	if stats.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", stats.Expired)
	}
	// w1's renewed lease must still be live.
	if _, ok := b.owned(l1.id); !ok {
		t.Fatal("w1's renewed lease must not have expired")
	}
}

func TestBoardFirstResultWinsAndSettlesRaces(t *testing.T) {
	b, clk, stats := testBoard(4, Options{LeaseTasks: 4})
	l1, _ := b.grant("w1", clk.now())
	l2, _ := b.grant("w2", clk.now()) // steals k002, k003
	if want := []string{"k002", "k003"}; !reflect.DeepEqual(leaseKeys(l2), want) {
		t.Fatalf("setup: stolen keys %v, want %v", leaseKeys(l2), want)
	}
	// w1 finishes a stolen task first: recorded, and removed from BOTH
	// leases so w2 skips it.
	b.complete(l1.id, "k002", json.RawMessage(`"w1"`), clk.now())
	if keys, _ := b.owned(l2.id); !reflect.DeepEqual(keys, []string{"k003"}) {
		t.Fatalf("w2 owns %v after the race settled, want [k003]", keys)
	}
	// w2 finishes the same task later: dropped as a duplicate.
	b.complete(l2.id, "k002", json.RawMessage(`"w2"`), clk.now())
	if stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", stats.Duplicates)
	}
	b.complete(l1.id, "k000", json.RawMessage(`1`), clk.now())
	b.complete(l1.id, "k001", json.RawMessage(`1`), clk.now())
	b.complete(l2.id, "k003", json.RawMessage(`1`), clk.now())
	if !b.done() {
		t.Fatal("board must be done after all four tasks completed")
	}
	res := b.finish()
	if len(res) != 4 || res[2].Key != "k002" || string(res[2].Data) != `"w1"` {
		t.Fatalf("finish() = %+v: first result must win and order must be key-sorted", res)
	}
}

func TestBoardFinishIsKeySorted(t *testing.T) {
	b, clk, _ := testBoard(5, Options{LeaseTasks: 5})
	l, _ := b.grant("w", clk.now())
	// Complete in reverse order; finish() must still be key-sorted.
	for i := 4; i >= 0; i-- {
		b.complete(l.id, fmt.Sprintf("k%03d", i), json.RawMessage(`1`), clk.now())
	}
	res := b.finish()
	for i, r := range res {
		if want := fmt.Sprintf("k%03d", i); r.Key != want {
			t.Fatalf("finish()[%d] = %s, want %s", i, r.Key, want)
		}
	}
}
