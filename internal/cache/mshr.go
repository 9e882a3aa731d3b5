package cache

// MSHRFile models the miss-status holding registers of an L1 cache.
// Each entry tracks one outstanding line miss; secondary misses to the
// same line merge into the existing entry instead of issuing new memory
// requests. The fixed entry budget (Kmshr in the paper's Eq. 1) is the
// hardware lever that serialises concurrent misses: when all entries
// are busy a load cannot issue and its warp must retry, which is how
// the ⌈N·m/Kmshr⌉ latency growth of the analytical model emerges in
// the simulator.
//
// The file is small (32 entries on the baseline GPU), so the live line
// addresses sit packed in one array that Lookup scans linearly — a few
// cache lines of compares, no hashing — with the entries beside them at
// the same index. Release closes the gap with the last entry; the order
// of the array carries no meaning.
type MSHRFile struct {
	capacity int
	keys     []uint64 // line addresses of the live entries
	ents     []*MSHR  // ents[i] is the entry for keys[i]

	// free holds the entries not in use, with their Waiters storage: the
	// file is built with one per register, Recycle returns them here once
	// the fill that released them is fully processed, and Reset and Clear
	// hand back the live ones, so no miss allocates an entry.
	free []*MSHR

	// Cumulative counters.
	Allocs    int64 // primary misses (memory requests issued)
	Merges    int64 // secondary misses merged
	FullFails int64 // allocation attempts rejected because the file was full
	PeakUsed  int
}

// Waiter identifies a warp waiting on a missing line.
type Waiter struct {
	Sched int   // scheduler index within the SM
	Slot  int   // warp slot within the scheduler
	Token int64 // per-warp load token to locate the scoreboard entry
	Warp  int32 // global warp id, guards against slot recycling
}

// MSHR is one outstanding line miss.
type MSHR struct {
	LineAddr   uint64
	IssueCycle int64
	Pollute    bool // true if any merged requester had pollute privilege
	Warp       int32
	PC         int32
	Waiters    []Waiter
}

// NewMSHRFile builds a file with the given number of entries.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity < 1 {
		capacity = 1
	}
	f := &MSHRFile{
		capacity: capacity,
		keys:     make([]uint64, 0, capacity),
		ents:     make([]*MSHR, 0, capacity),
		free:     make([]*MSHR, capacity),
	}
	ents, waiters := make([]MSHR, capacity), make([]Waiter, capacity)
	for i := range ents {
		ents[i].Waiters = waiters[i : i : i+1]
		f.free[i] = &ents[i]
	}
	return f
}

// Capacity returns the entry budget.
func (f *MSHRFile) Capacity() int { return f.capacity }

// Used returns the number of live entries.
func (f *MSHRFile) Used() int { return len(f.keys) }

// Full reports whether no further primary miss can be tracked.
func (f *MSHRFile) Full() bool { return len(f.keys) >= f.capacity }

// Lookup returns the entry for lineAddr, or nil.
func (f *MSHRFile) Lookup(lineAddr uint64) *MSHR {
	for i, k := range f.keys {
		if k == lineAddr {
			return f.ents[i]
		}
	}
	return nil
}

// Allocate creates an entry for a primary miss. It returns nil if the
// file is full (the caller must make the warp retry).
func (f *MSHRFile) Allocate(lineAddr uint64, cycle int64, pollute bool, warp int32, pc int32, w Waiter) *MSHR {
	if f.Full() {
		f.FullFails++
		return nil
	}
	m := f.take()
	*m = MSHR{LineAddr: lineAddr, IssueCycle: cycle, Pollute: pollute, Warp: warp, PC: pc, Waiters: append(m.Waiters[:0], w)}
	f.keys = append(f.keys, lineAddr)
	f.ents = append(f.ents, m)
	f.Allocs++
	if len(f.keys) > f.PeakUsed {
		f.PeakUsed = len(f.keys)
	}
	return m
}

// Merge records a secondary miss on an existing entry. Pollute
// privilege is sticky: if any requester may allocate, the eventual fill
// allocates.
func (f *MSHRFile) Merge(m *MSHR, pollute bool, w Waiter) {
	m.Waiters = append(m.Waiters, w)
	if pollute {
		m.Pollute = true
	}
	f.Merges++
}

// Release removes the entry for lineAddr (on fill) and returns it.
// The caller owns the entry until it hands it back with Recycle.
func (f *MSHRFile) Release(lineAddr uint64) *MSHR {
	for i, k := range f.keys {
		if k == lineAddr {
			m, last := f.ents[i], len(f.keys)-1
			f.keys[i], f.ents[i] = f.keys[last], f.ents[last]
			f.keys, f.ents = f.keys[:last], f.ents[:last]
			return m
		}
	}
	return nil
}

// EachWaiter calls fn with every waiter of every live entry.
func (f *MSHRFile) EachWaiter(fn func(Waiter)) {
	for _, m := range f.ents {
		for _, w := range m.Waiters {
			fn(w)
		}
	}
}

// Recycle returns a released entry to the free pool for reuse by a
// later Allocate. The entry (including its Waiters slice) must no
// longer be referenced by the caller.
func (f *MSHRFile) Recycle(m *MSHR) {
	f.free = append(f.free, m)
}

// take removes an entry from the free pool. The pool only runs dry for
// a caller that released entries and never recycled them.
func (f *MSHRFile) take() *MSHR {
	n := len(f.free)
	if n == 0 {
		return &MSHR{}
	}
	m := f.free[n-1]
	f.free = f.free[:n-1]
	return m
}

// Reset drops all live entries (used between kernels).
func (f *MSHRFile) Reset() {
	f.free = append(f.free, f.ents...)
	f.keys, f.ents = f.keys[:0], f.ents[:0]
}

// Clear restores the file to its just-constructed state: no entries,
// every register blank in the free pool and zeroed counters. The GPU
// pool relies on Clear leaving state reflect.DeepEqual-identical to
// NewMSHRFile with the same capacity.
func (f *MSHRFile) Clear() {
	f.Reset()
	for _, m := range f.free {
		*m = MSHR{Waiters: m.Waiters[:0]}
	}
	f.Allocs, f.Merges, f.FullFails, f.PeakUsed = 0, 0, 0, 0
}
