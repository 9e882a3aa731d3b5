package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"poise/internal/snap"
	"poise/internal/snap/snaptest"
)

func TestMSHRAllocateMergeRelease(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Capacity() != 2 || f.Used() != 0 || f.Full() {
		t.Fatalf("fresh file wrong: cap=%d used=%d", f.Capacity(), f.Used())
	}
	m := f.Allocate(0x10, 100, true, 1, 0, Waiter{Sched: 0, Slot: 1, Token: 1, Warp: 1})
	if m == nil || f.Used() != 1 {
		t.Fatal("allocate failed")
	}
	if got := f.Lookup(0x10); got != m {
		t.Fatal("lookup must find the entry")
	}
	f.Merge(m, false, Waiter{Sched: 0, Slot: 2, Token: 3, Warp: 2})
	if len(m.Waiters) != 2 {
		t.Fatalf("waiters = %d, want 2", len(m.Waiters))
	}
	if !m.Pollute {
		t.Fatal("pollute must stay sticky-true")
	}
	rel := f.Release(0x10)
	if rel != m || f.Used() != 0 {
		t.Fatal("release failed")
	}
	if f.Release(0x10) != nil {
		t.Fatal("double release must return nil")
	}
}

func TestMSHRPolluteSticky(t *testing.T) {
	f := NewMSHRFile(2)
	m := f.Allocate(0x20, 1, false, 1, 0, Waiter{Token: 1})
	if m.Pollute {
		t.Fatal("non-pollute primary must start false")
	}
	f.Merge(m, true, Waiter{Token: 2})
	if !m.Pollute {
		t.Fatal("a polluting merge must upgrade the fill")
	}
}

func TestMSHRFullRejects(t *testing.T) {
	f := NewMSHRFile(1)
	if f.Allocate(0x1, 1, true, 1, 0, Waiter{}) == nil {
		t.Fatal("first allocate must succeed")
	}
	if !f.Full() {
		t.Fatal("file must be full")
	}
	if f.Allocate(0x2, 2, true, 1, 0, Waiter{}) != nil {
		t.Fatal("allocate on full file must fail")
	}
	if f.FullFails != 1 {
		t.Fatalf("FullFails = %d, want 1", f.FullFails)
	}
	f.Release(0x1)
	if f.Allocate(0x2, 3, true, 1, 0, Waiter{}) == nil {
		t.Fatal("allocate after release must succeed")
	}
}

func TestMSHRCounters(t *testing.T) {
	f := NewMSHRFile(4)
	m := f.Allocate(0x1, 1, true, 1, 0, Waiter{})
	f.Allocate(0x2, 1, true, 1, 0, Waiter{})
	f.Merge(m, true, Waiter{})
	if f.Allocs != 2 || f.Merges != 1 || f.PeakUsed != 2 {
		t.Fatalf("counters wrong: %+v", f)
	}
	f.Reset()
	if f.Used() != 0 {
		t.Fatal("reset must drop entries")
	}
}

// totalLost is the sum of v's lost-locality counters, left as they are.
func totalLost(v *VictimTags) int64 {
	var s int64
	for _, x := range v.lost {
		s += x
	}
	return s
}

func TestVictimTagsDetectLostLocality(t *testing.T) {
	v := NewVictimTags(2, 8)
	v.NoteEviction(3, 0x100)
	v.NoteMiss(3, 0x100)
	if totalLost(v) != 1 {
		t.Fatalf("lost = %d, want 1", totalLost(v))
	}
	// The tag is consumed: a second miss is not double-counted.
	v.NoteMiss(3, 0x100)
	if totalLost(v) != 1 {
		t.Fatal("consumed tag must not re-fire")
	}
	// Another warp's miss on the same line is not this warp's loss.
	v.NoteEviction(4, 0x200)
	v.NoteMiss(5, 0x200)
	if totalLost(v) != 1 {
		t.Fatal("cross-warp miss must not count")
	}
}

func TestVictimTagsRingOverwrite(t *testing.T) {
	v := NewVictimTags(2, 4)
	v.NoteEviction(0, 0x1)
	v.NoteEviction(0, 0x2)
	v.NoteEviction(0, 0x3) // overwrites 0x1
	v.NoteMiss(0, 0x1)
	if totalLost(v) != 0 {
		t.Fatal("overwritten tag must be forgotten")
	}
	v.NoteMiss(0, 0x3)
	if totalLost(v) != 1 {
		t.Fatal("recent tag must be remembered")
	}
}

func TestVictimDrain(t *testing.T) {
	v := NewVictimTags(4, 2)
	v.NoteEviction(0, 0x9)
	v.NoteMiss(0, 0x9)
	got := v.Drain()
	if got[0] != 1 {
		t.Fatalf("drain = %v", got)
	}
	if totalLost(v) != 0 {
		t.Fatal("drain must reset counters")
	}
}

func TestVictimTagZeroLineAddr(t *testing.T) {
	// Line address 0 must be representable (tags are offset by 1).
	v := NewVictimTags(2, 2)
	v.NoteEviction(0, 0)
	v.NoteMiss(0, 0)
	if totalLost(v) != 1 {
		t.Fatal("line 0 must be trackable")
	}
}

// mshrModel is what the packed file must behave like: a map from line
// address to the entry's observable fields.
type mshrModel struct {
	pollute bool
	issue   int64
	waiters []Waiter
}

// TestMSHRFileMatchesMap drives random Allocate/Merge/Lookup/Release/
// Recycle/Reset traffic through the packed file and through a map kept
// here, over a small line pool so hits, merges, full files and holes
// left by releases all occur. After every operation the file must agree
// with the map on membership, entry contents, Used, Full and PeakUsed,
// and from time to time an encode → decode round trip onto a second
// file must reproduce the same contents and an identical re-encoding.
func TestMSHRFileMatchesMap(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 32} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		f := NewMSHRFile(capacity)
		model := map[uint64]*mshrModel{}
		var allocs, merges, fullFails int64
		peak := 0
		pool := uint64(3 * capacity)
		check := func(step int, op string) {
			t.Helper()
			if f.Used() != len(model) || f.Full() != (len(model) >= capacity) || f.PeakUsed != peak {
				t.Fatalf("cap %d step %d after %s: used %d full %v peak %d, the map says %d %v %d",
					capacity, step, op, f.Used(), f.Full(), f.PeakUsed, len(model), len(model) >= capacity, peak)
			}
			if f.Allocs != allocs || f.Merges != merges || f.FullFails != fullFails {
				t.Fatalf("cap %d step %d after %s: counters %d/%d/%d, want %d/%d/%d",
					capacity, step, op, f.Allocs, f.Merges, f.FullFails, allocs, merges, fullFails)
			}
			for line := uint64(0); line < pool; line++ {
				m, want := f.Lookup(line), model[line]
				if (m == nil) != (want == nil) {
					t.Fatalf("cap %d step %d after %s: line %d live %v, the map says %v", capacity, step, op, line, m != nil, want != nil)
				}
				if m != nil && (m.LineAddr != line || m.Pollute != want.pollute || m.IssueCycle != want.issue || !slices.Equal(m.Waiters, want.waiters)) {
					t.Fatalf("cap %d step %d after %s: line %d holds %+v, want %+v", capacity, step, op, line, *m, *want)
				}
			}
		}
		for step := 0; step < 6000; step++ {
			line := uint64(rng.Intn(int(pool)))
			wt := Waiter{Sched: rng.Intn(4), Slot: rng.Intn(48), Token: int64(step), Warp: int32(rng.Intn(64))}
			pollute := rng.Intn(2) == 0
			switch op := rng.Intn(10); {
			case op < 5: // a miss: merge if outstanding, else allocate
				if m := f.Lookup(line); m != nil {
					f.Merge(m, pollute, wt)
					merges++
					model[line].waiters = append(model[line].waiters, wt)
					model[line].pollute = model[line].pollute || pollute
					check(step, "merge")
					break
				}
				m := f.Allocate(line, int64(step), pollute, wt.Warp, 3, wt)
				if len(model) >= capacity {
					fullFails++
					if m != nil {
						t.Fatalf("cap %d step %d: allocate on a full file succeeded", capacity, step)
					}
				} else {
					allocs++
					model[line] = &mshrModel{pollute: pollute, issue: int64(step), waiters: []Waiter{wt}}
					peak = max(peak, len(model))
				}
				check(step, "allocate")
			case op < 9: // a fill: release (live or not) and recycle
				m := f.Release(line)
				if (m != nil) != (model[line] != nil) {
					t.Fatalf("cap %d step %d: release of line %d returned %v, the map holds %v", capacity, step, line, m, model[line])
				}
				delete(model, line)
				if m != nil {
					f.Recycle(m)
				}
				check(step, "release")
			case rng.Intn(20) == 0: // kernel boundary
				f.Reset()
				clear(model)
				check(step, "reset")
			default:
				data := snaptest.Out(f.Walk)
				g := NewMSHRFile(capacity)
				g.Allocate(line+pool, 0, true, 0, 0, Waiter{}) // decode must replace what is there
				if err := snaptest.In(g.Walk, data); err != nil {
					t.Fatalf("cap %d step %d: decode: %v", capacity, step, err)
				}
				if !bytes.Equal(data, snaptest.Out(g.Walk)) {
					t.Fatalf("cap %d step %d: a decoded file encodes differently", capacity, step)
				}
				f = g // carry on with the restored file
				check(step, "round trip")
			}
		}
		f.Clear()
		if !reflect.DeepEqual(f, NewMSHRFile(capacity)) {
			t.Fatalf("cap %d: Clear left %+v", capacity, f)
		}
	}
}

// TestMSHRDecodeRejects: a hostile payload may not plant two entries
// for one line (Lookup would find only the first) or more entries than
// the file has registers.
func TestMSHRDecodeRejects(t *testing.T) {
	entry := func(w *snap.Writer, line uint64) {
		w.Uvarint(line)
		w.Varint(5)  // issue cycle
		w.Bool(true) // pollute
		w.Varint(1)  // warp
		w.Varint(0)  // pc
		w.Uvarint(0) // waiters
	}
	counters := func(w *snap.Writer) {
		for i := 0; i < 4; i++ {
			w.Varint(0)
		}
	}
	for name, lines := range map[string][]uint64{
		"duplicate line":     {7, 9, 7},
		"more than capacity": {1, 2, 3, 4, 5},
	} {
		w := snap.NewWriter()
		w.Uvarint(uint64(len(lines)))
		for _, l := range lines {
			entry(w, l)
		}
		counters(w)
		f := NewMSHRFile(4)
		if err := snaptest.In(f.Walk, w.Data()); err == nil {
			t.Fatalf("%s: accepted, file now holds %d entries", name, f.Used())
		}
	}
	// The same shape with distinct lines within capacity is fine.
	w := snap.NewWriter()
	w.Uvarint(3)
	for _, l := range []uint64{7, 9, 8} {
		entry(w, l)
	}
	counters(w)
	f := NewMSHRFile(4)
	if err := snaptest.In(f.Walk, w.Data()); err != nil || f.Used() != 3 || f.Lookup(8) == nil {
		t.Fatalf("well-formed payload: err %v, used %d", err, f.Used())
	}
}

// TestMSHRFileOwnsItsEntries: the file is built with every register it
// will ever use. A run of misses, merges and fills, a Reset between
// kernels and a restore allocate no entry, and Clear leaves the file
// reflect.DeepEqual to a new one (what the GPU pool relies on).
func TestMSHRFileOwnsItsEntries(t *testing.T) {
	const capacity = 8
	f := NewMSHRFile(capacity)
	churn := func() {
		f.Reset()
		for round := 0; round < 50; round++ {
			for l := uint64(0); l < capacity; l++ {
				m := f.Allocate(l, int64(round), l%2 == 0, 1, 2, Waiter{Slot: int(l)})
				f.Merge(m, true, Waiter{Slot: int(l) + 1})
			}
			if f.Allocate(99, 0, false, 0, 0, Waiter{}) != nil {
				t.Fatal("a full file allocated")
			}
			for l := uint64(0); l < capacity/2; l++ {
				f.Recycle(f.Release(l))
			}
			f.Reset() // the other half is dropped live, as between kernels
		}
	}
	churn() // first use grows the Waiters slices to two
	f.Reset()
	w := snap.NewWriter()
	for l := uint64(0); l < capacity; l++ {
		f.Merge(f.Allocate(3*l, 7, false, 1, 2, Waiter{Slot: 1}), false, Waiter{Slot: 2})
	}
	f.Walk(snap.Out(w))
	restore := func() {
		r := snap.NewReader(w.Data())
		if f.Walk(snap.In(r)); r.Err() != nil {
			t.Fatal(r.Err())
		}
	}
	if n := testing.AllocsPerRun(5, func() { churn(); restore() }); n > 1 { // the Reader
		t.Fatalf("%.0f allocations per churn and restore, want the Reader alone", n)
	}
	if f.Used() != capacity || f.Lookup(9) == nil || len(f.Lookup(9).Waiters) != 2 {
		t.Fatalf("restored %d entries", f.Used())
	}
	f.Clear()
	if !reflect.DeepEqual(f, NewMSHRFile(capacity)) {
		t.Fatal("a cleared file differs from a new one")
	}
}
