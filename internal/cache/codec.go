package cache

import (
	"cmp"
	"fmt"
	"slices"

	"poise/internal/snap"
)

// Checkpoint codecs for the cache layer, a snap.Walk per struct; the
// two loops that carry most of a snapshot's bytes (cache lines, MSHR
// entries with their waiters) are written out per direction inside it.
// Geometry (config, capacities) is never serialised — the restoring side builds the cache
// from the same configuration and the walk verifies the sizes line up —
// so a snapshot can only be restored onto a structurally identical
// device, and the payload stays compact.

// maxWaiters bounds one MSHR entry's merged-waiter list on decode (a
// waiter per warp slot of a large SM is well under this).
const maxWaiters = 1 << 16

// Walk lists the statistics.
func (s *Stats) Walk(k snap.Walk) {
	k.Varint(&s.Accesses)
	k.Varint(&s.Hits)
	k.Varint(&s.IntraWarpHits)
	k.Varint(&s.InterWarpHits)
	k.Varint(&s.PolluteAccesses)
	k.Varint(&s.PolluteHits)
	k.Varint(&s.NoPollAccesses)
	k.Varint(&s.NoPollHits)
	k.Varint(&s.Evictions)
	k.Varint(&s.Bypasses)
	k.Varint(&s.Fills)
}

// Walk lists the cache's mutable state: every line, the LRU clock,
// statistics, and the victim tag array when attached. A walk in restores
// onto a cache of identical geometry.
func (c *Cache) Walk(k snap.Walk) {
	k.Fixed(len(c.sets), "cache: snapshot has %d lines, cache has %d")
	if r := k.Reader(); r != nil {
		for i := range c.sets {
			l := &c.sets[i]
			if !r.Bool() {
				*l = line{}
				continue
			}
			*l = line{valid: true, tag: r.Uvarint(), lastWarp: int32(r.Varint()), lastPC: int32(r.Varint()), lruTick: r.Uvarint()}
		}
	} else {
		lw := *k.Writer() // the loop appends to a writer the compiler keeps in registers
		for i := range c.sets {
			l := &c.sets[i]
			lw.Bool(l.valid)
			if !l.valid {
				continue // invalid lines carry no information
			}
			lw.Uvarint(l.tag)
			lw.Varint(int64(l.lastWarp))
			lw.Varint(int64(l.lastPC))
			lw.Uvarint(l.lruTick)
		}
		*k.Writer() = lw
	}
	k.Uvarint(&c.tick)
	c.Stats.Walk(k)
	attached := c.victim != nil
	k.Bool(&attached)
	if !attached {
		c.victim = nil
		return
	}
	if c.victim == nil {
		c.victim = NewVictimTags(1, 1) // resized by its walk
	}
	c.victim.walk(k)
}

// walk lists the victim tag array. A walk in resizes it to the
// snapshot's geometry (the policy that attached it owns the sizing
// decision, and it is part of the checkpointed policy state), once the
// payload has shown it holds that many tags, a byte each at least.
func (v *VictimTags) walk(k snap.Walk) {
	perWarp, warps := uint64(v.perWarp), uint64(len(v.tags))
	k.Uvarint(&perWarp)
	k.Uvarint(&warps)
	if r := k.Reader(); r != nil {
		if perWarp < 1 || perWarp > 1<<20 || warps < 1 || warps > 1<<20 {
			k.Fail(fmt.Errorf("cache: implausible victim tag geometry %dx%d", warps, perWarp))
			return
		}
		if perWarp*warps > uint64(r.Len()) {
			k.Fail(fmt.Errorf("cache: victim tag geometry %dx%d does not fit the %d bytes left", warps, perWarp, r.Len()))
			return
		}
		if int(perWarp) != v.perWarp || int(warps) != len(v.tags) {
			*v = *NewVictimTags(int(perWarp), int(warps))
		}
	}
	for i := range v.tags {
		for j := range v.tags[i] {
			k.Uvarint(&v.tags[i][j])
		}
		k.Int(&v.next[i])
		k.Varint(&v.lost[i])
	}
	k.Check(v.restored)
}

// restored checks the ring cursors NoteEviction indexes with.
func (v *VictimTags) restored() error {
	for _, next := range v.next {
		if next < 0 || next >= v.perWarp {
			return fmt.Errorf("cache: victim ring cursor %d out of range", next)
		}
	}
	return nil
}

// Walk lists the MSHR file: live entries, sorted by line address so the
// encoding does not depend on the order releases left the packed array
// in, and the cumulative counters. The sort is done in place (that
// order carries no meaning), and nearly always finds the array as the
// last restore left it; a walk in restores into the entries the file
// already owns. The free pool is not serialised: it only recycles
// allocations and has no behavioural effect.
func (f *MSHRFile) Walk(k snap.Walk) {
	if w := k.Writer(); w != nil {
		slices.SortFunc(f.ents, func(a, b *MSHR) int { return cmp.Compare(a.LineAddr, b.LineAddr) })
		w.Uvarint(uint64(len(f.ents)))
		for i, m := range f.ents {
			f.keys[i] = m.LineAddr
			w.Uvarint(m.LineAddr)
			w.Varint(m.IssueCycle)
			w.Bool(m.Pollute)
			w.Varint(int64(m.Warp))
			w.Varint(int64(m.PC))
			w.Uvarint(uint64(len(m.Waiters)))
			for _, wt := range m.Waiters {
				w.Varint(int64(wt.Sched))
				w.Varint(int64(wt.Slot))
				w.Varint(wt.Token)
				w.Varint(int64(wt.Warp))
			}
		}
	} else {
		f.decodeEntries(k)
	}
	k.Varint(&f.Allocs)
	k.Varint(&f.Merges)
	k.Varint(&f.FullFails)
	k.Int(&f.PeakUsed)
}

func (f *MSHRFile) decodeEntries(k snap.Walk) {
	r := k.Reader()
	n := r.Uvarint()
	if n > uint64(f.capacity) {
		k.Fail(fmt.Errorf("cache: snapshot has %d MSHR entries, capacity %d", n, f.capacity))
		return
	}
	f.Reset()
	for i := 0; i < int(n); i++ {
		m := f.take()
		*m = MSHR{LineAddr: r.Uvarint(), IssueCycle: r.Varint(), Pollute: r.Bool(),
			Warp: int32(r.Varint()), PC: int32(r.Varint()), Waiters: m.Waiters[:0]}
		// Listed before any check so that the entry is never lost to the pool.
		f.keys = append(f.keys, m.LineAddr)
		f.ents = append(f.ents, m)
		nw := r.Count(maxWaiters)
		for j := 0; j < nw; j++ {
			m.Waiters = append(m.Waiters, Waiter{Sched: int(r.Varint()), Slot: int(r.Varint()), Token: r.Varint(), Warp: int32(r.Varint())})
		}
		if r.Err() == nil && slices.Contains(f.keys[:i], m.LineAddr) {
			k.Fail(fmt.Errorf("cache: snapshot has two MSHR entries for line %#x", m.LineAddr))
		}
		if r.Err() != nil {
			return
		}
	}
}
