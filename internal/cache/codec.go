package cache

import (
	"cmp"
	"fmt"
	"slices"

	"poise/internal/snap"
)

// Checkpoint codecs for the cache layer (internal/snap payload
// fragments). Encode and Decode are asymmetric on purpose: geometry
// (config, capacities) is never serialised — the restoring side builds
// the cache from the same configuration and Decode verifies the sizes
// line up — so a snapshot can only be restored onto a structurally
// identical device, and the payload stays compact.

// maxWaiters bounds one MSHR entry's merged-waiter list on decode (a
// waiter per warp slot of a large SM is well under this).
const maxWaiters = 1 << 16

// EncodeState serialises Stats.
func (s *Stats) EncodeState(w *snap.Writer) {
	w.Varint(s.Accesses)
	w.Varint(s.Hits)
	w.Varint(s.IntraWarpHits)
	w.Varint(s.InterWarpHits)
	w.Varint(s.PolluteAccesses)
	w.Varint(s.PolluteHits)
	w.Varint(s.NoPollAccesses)
	w.Varint(s.NoPollHits)
	w.Varint(s.Evictions)
	w.Varint(s.Bypasses)
	w.Varint(s.Fills)
}

// DecodeState restores Stats written by EncodeState.
func (s *Stats) DecodeState(r *snap.Reader) {
	s.Accesses = r.Varint()
	s.Hits = r.Varint()
	s.IntraWarpHits = r.Varint()
	s.InterWarpHits = r.Varint()
	s.PolluteAccesses = r.Varint()
	s.PolluteHits = r.Varint()
	s.NoPollAccesses = r.Varint()
	s.NoPollHits = r.Varint()
	s.Evictions = r.Varint()
	s.Bypasses = r.Varint()
	s.Fills = r.Varint()
}

// EncodeState serialises the cache's mutable state: every line, the
// LRU clock, statistics, and the victim tag array when attached.
func (c *Cache) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(len(c.sets)))
	lw := *w // the loop appends to a writer the compiler keeps in registers
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
	*w = lw
	w.Uvarint(c.tick)
	c.Stats.EncodeState(w)
	if c.victim == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		c.victim.EncodeState(w)
	}
}

// DecodeState restores state written by EncodeState onto a cache with
// identical geometry.
func (c *Cache) DecodeState(r *snap.Reader) error {
	n := r.Uvarint()
	if r.Err() == nil && n != uint64(len(c.sets)) {
		return fmt.Errorf("cache: snapshot has %d lines, cache has %d", n, len(c.sets))
	}
	for i := range c.sets {
		l := &c.sets[i]
		if !r.Bool() {
			*l = line{}
			continue
		}
		l.valid = true
		l.tag = r.Uvarint()
		l.lastWarp = int32(r.Varint())
		l.lastPC = int32(r.Varint())
		l.lruTick = r.Uvarint()
	}
	c.tick = r.Uvarint()
	c.Stats.DecodeState(r)
	if r.Bool() {
		if c.victim == nil {
			c.victim = NewVictimTags(1, 1) // resized by DecodeState below
		}
		if err := c.victim.DecodeState(r); err != nil {
			return err
		}
	} else {
		c.victim = nil
	}
	return r.Err()
}

// EncodeState serialises the victim tag array.
func (v *VictimTags) EncodeState(w *snap.Writer) {
	w.Uvarint(uint64(v.perWarp))
	w.Uvarint(uint64(len(v.tags)))
	for i := range v.tags {
		for _, t := range v.tags[i] {
			w.Uvarint(t)
		}
		w.Varint(int64(v.next[i]))
		w.Varint(v.lost[i])
	}
}

// DecodeState restores a victim tag array, resizing to the snapshot's
// geometry (the policy that attached it owns the sizing decision, and
// it is part of the checkpointed policy state).
func (v *VictimTags) DecodeState(r *snap.Reader) error {
	perWarp := int(r.Uvarint())
	warps := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if perWarp < 1 || perWarp > 1<<20 || warps < 1 || warps > 1<<20 {
		return fmt.Errorf("cache: implausible victim tag geometry %dx%d", warps, perWarp)
	}
	if perWarp != v.perWarp || warps != len(v.tags) {
		*v = *NewVictimTags(perWarp, warps)
	}
	for i := range v.tags {
		for j := range v.tags[i] {
			v.tags[i][j] = r.Uvarint()
		}
		v.next[i] = int(r.Varint())
		v.lost[i] = r.Varint()
		if v.next[i] < 0 || v.next[i] >= perWarp {
			return fmt.Errorf("cache: victim ring cursor %d out of range", v.next[i])
		}
	}
	return r.Err()
}

// EncodeState serialises the MSHR file: live entries, sorted by line
// address so the encoding does not depend on the order releases left
// the packed array in, and the cumulative counters. The sort is done in
// place (that order carries no meaning), and nearly always finds the
// array as the last restore left it. The free pool is not serialised:
// it only recycles allocations and has no behavioural effect.
func (f *MSHRFile) EncodeState(w *snap.Writer) {
	slices.SortFunc(f.ents, func(a, b *MSHR) int { return cmp.Compare(a.LineAddr, b.LineAddr) })
	for i, m := range f.ents {
		f.keys[i] = m.LineAddr
	}
	w.Uvarint(uint64(len(f.ents)))
	for _, m := range f.ents {
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
	w.Varint(f.Allocs)
	w.Varint(f.Merges)
	w.Varint(f.FullFails)
	w.Varint(int64(f.PeakUsed))
}

// DecodeState restores an MSHR file written by EncodeState into the
// entries the file already owns.
func (f *MSHRFile) DecodeState(r *snap.Reader) error {
	n := int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if n > f.capacity {
		return fmt.Errorf("cache: snapshot has %d MSHR entries, capacity %d", n, f.capacity)
	}
	f.Reset()
	for i := 0; i < n; i++ {
		m := f.take()
		*m = MSHR{LineAddr: r.Uvarint(), IssueCycle: r.Varint(), Pollute: r.Bool(),
			Warp: int32(r.Varint()), PC: int32(r.Varint()), Waiters: m.Waiters[:0]}
		// Listed before any check so that the entry is never lost to the pool.
		f.keys = append(f.keys, m.LineAddr)
		f.ents = append(f.ents, m)
		nw := r.Count(maxWaiters)
		for j := 0; j < nw; j++ {
			m.Waiters = append(m.Waiters, Waiter{
				Sched: int(r.Varint()),
				Slot:  int(r.Varint()),
				Token: r.Varint(),
				Warp:  int32(r.Varint()),
			})
		}
		if r.Err() != nil {
			return r.Err()
		}
		if slices.Contains(f.keys[:i], m.LineAddr) {
			return fmt.Errorf("cache: snapshot has two MSHR entries for line %#x", m.LineAddr)
		}
	}
	f.Allocs = r.Varint()
	f.Merges = r.Varint()
	f.FullFails = r.Varint()
	f.PeakUsed = int(r.Varint())
	return r.Err()
}
