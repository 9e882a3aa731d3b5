package cache

import (
	"cmp"
	"encoding/binary"
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
	if k.Reader() != nil {
		c.decodeLines(k)
	} else {
		c.encodeLines(k)
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

// Largest records, in bytes: a valid line (valid byte, tag, LRU tick,
// last warp, last PC), an MSHR entry without its waiters (line, issue
// cycle, pollute byte, warp, PC, waiter count) and one waiter (scheduler,
// slot, token, warp). A varint of a 32-bit value takes 5 bytes at most.
const (
	lineMax   = 1 + 2*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32
	entryMax  = 3*binary.MaxVarintLen64 + 1 + 2*binary.MaxVarintLen32
	waiterMax = 3*binary.MaxVarintLen64 + binary.MaxVarintLen32
)

// encodeLines writes every line: its valid byte, then, for a valid line
// only, its tag, last warp, last PC and LRU tick.
func (c *Cache) encodeLines(k snap.Walk) {
	for i := 0; i < len(c.sets); {
		b := k.Reserve(lineMax)
		at := 0
		for ; i < len(c.sets) && at <= len(b)-lineMax; i++ {
			l := &c.sets[i]
			if !l.valid {
				b[at] = 0 // invalid lines carry no information
				at++
				continue
			}
			b[at] = 1
			at++
			if v := l.tag; v>>49 != 0 && v>>56 == 0 {
				// A tag of exactly 8 bytes, the usual length of a line
				// address: its seven-bit groups, spread for one store.
				x := v&0xfffffff | (v&0xfffffff0000000)<<4
				x = x&0x00003fff00003fff | (x&0x0fffc0000fffc000)<<2
				x = x&0x007f007f007f007f | (x&0x3f803f803f803f80)<<1
				binary.LittleEndian.PutUint64(b[at:], x|0x0080808080808080)
				at += 8
			} else {
				at += binary.PutUvarint(b[at:], l.tag)
			}
			at += binary.PutVarint(b[at:], int64(l.lastWarp))
			at += binary.PutVarint(b[at:], int64(l.lastPC))
			at += binary.PutUvarint(b[at:], l.lruTick)
		}
		k.Advance(at)
	}
}

// decodeLines reads what encodeLines wrote, from the unread payload by
// index, and checks each record once.
func (c *Cache) decodeLines(k snap.Walk) {
	b := k.Reserve(0)
	at := 0
	for i := range c.sets {
		l := &c.sets[i]
		if at >= len(b) || b[at] > 1 {
			k.Fail(fmt.Errorf("cache: line %d: truncated or corrupt valid byte", i))
			return
		}
		at++
		if b[at-1] == 0 {
			*l = line{}
			continue
		}
		var tag, warp, pc, tick uint64
		if x := eightBytes(b, at); x&0x8080808080808080 == 0x0080808080808080 {
			// A tag of exactly 8 bytes, the usual length of a line
			// address: its seven-bit groups, gathered from one load.
			x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
			x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
			tag, at = x&0x0fffffff|(x&0x0fffffff00000000)>>4, at+8
		} else {
			tag, at = uvarintAt(b, at)
		}
		warp, at = uvarintAt(b, at)
		pc, at = uvarintAt(b, at)
		tick, at = uvarintAt(b, at)
		if at > len(b) {
			k.Fail(fmt.Errorf("cache: line %d: truncated or corrupt varint", i))
			return
		}
		// Field by field: a composite literal is built on the stack and
		// copied in wider loads than its stores, which stalls.
		l.tag, l.valid, l.lastWarp, l.lastPC, l.lruTick = tag, true, int32(zigzag(warp)), int32(zigzag(pc)), tick
	}
	k.Advance(at)
}

// eightBytes returns the 8 bytes at b[at:] as a little-endian word, or 0
// (no varint ends in it) where fewer are left.
func eightBytes(b []byte, at int) uint64 {
	if at+8 > len(b) {
		return 0
	}
	return binary.LittleEndian.Uint64(b[at:])
}

// uvarintAt decodes the varint at b[at:], as snap.Reader.Uvarint does,
// and returns it with the offset past it. A corrupt or truncated varint
// returns len(b)+1, which every later read keeps, so a loop checks once
// per record that it stayed in b.
func uvarintAt(b []byte, at int) (uint64, int) {
	var v uint64
	for shift := uint(0); at < len(b) && shift < 64; shift += 7 {
		x := b[at]
		at++
		if x < 0x80 {
			if shift == 63 && x > 1 {
				break // overflows 64 bits
			}
			return v | uint64(x)<<shift, at
		}
		v |= uint64(x&0x7f) << shift
	}
	return 0, len(b) + 1
}

// zigzag decodes a signed varint from the unsigned one uvarintAt read.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

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
	if k.Reader() != nil {
		f.decodeEntries(k)
	} else {
		f.encodeEntries(k)
	}
	k.Varint(&f.Allocs)
	k.Varint(&f.Merges)
	k.Varint(&f.FullFails)
	k.Int(&f.PeakUsed)
}

// encodeEntries writes the entry count, then each entry: line, issue
// cycle, pollute byte, warp, PC and its waiters, counted.
func (f *MSHRFile) encodeEntries(k snap.Walk) {
	slices.SortFunc(f.ents, func(a, b *MSHR) int { return cmp.Compare(a.LineAddr, b.LineAddr) })
	k.Writer().Uvarint(uint64(len(f.ents)))
	for i, m := range f.ents {
		f.keys[i] = m.LineAddr
		b := k.Reserve(entryMax)
		at := binary.PutUvarint(b, m.LineAddr)
		at += binary.PutVarint(b[at:], m.IssueCycle)
		b[at] = 0
		if m.Pollute {
			b[at] = 1
		}
		at++
		at += binary.PutVarint(b[at:], int64(m.Warp))
		at += binary.PutVarint(b[at:], int64(m.PC))
		k.Advance(at + binary.PutUvarint(b[at:], uint64(len(m.Waiters))))
		for _, wt := range m.Waiters {
			b := k.Reserve(waiterMax)
			at := binary.PutVarint(b, int64(wt.Sched))
			at += binary.PutVarint(b[at:], int64(wt.Slot))
			at += binary.PutVarint(b[at:], wt.Token)
			k.Advance(at + binary.PutVarint(b[at:], int64(wt.Warp)))
		}
	}
}

// decodeEntries reads what encodeEntries wrote into the entries the file
// owns, from the unread payload by index, and checks each entry once.
func (f *MSHRFile) decodeEntries(k snap.Walk) {
	n := k.Reader().Uvarint()
	if n > uint64(f.capacity) {
		k.Fail(fmt.Errorf("cache: snapshot has %d MSHR entries, capacity %d", n, f.capacity))
		return
	}
	f.Reset()
	b := k.Reserve(0)
	at := 0
	for i := 0; i < int(n); i++ {
		var line, cycle, warp, pc, waiters uint64
		line, at = uvarintAt(b, at)
		cycle, at = uvarintAt(b, at)
		pollute := byte(2) // corrupt unless read
		if at < len(b) {
			pollute, at = b[at], at+1
		}
		warp, at = uvarintAt(b, at)
		pc, at = uvarintAt(b, at)
		waiters, at = uvarintAt(b, at)
		if at > len(b) || pollute > 1 || waiters > maxWaiters || waiters > uint64(len(b)-at) {
			k.Fail(fmt.Errorf("cache: MSHR entry %d: truncated or corrupt record", i))
			return
		}
		m := f.take()
		*m = MSHR{LineAddr: line, IssueCycle: zigzag(cycle), Pollute: pollute == 1,
			Warp: int32(zigzag(warp)), PC: int32(zigzag(pc)), Waiters: m.Waiters[:0]}
		// Listed before any check so that the entry is never lost to the pool.
		f.keys = append(f.keys, m.LineAddr)
		f.ents = append(f.ents, m)
		for range waiters {
			var sched, slot, token, warp uint64
			sched, at = uvarintAt(b, at)
			slot, at = uvarintAt(b, at)
			token, at = uvarintAt(b, at)
			warp, at = uvarintAt(b, at)
			m.Waiters = append(m.Waiters, Waiter{Sched: int(zigzag(sched)), Slot: int(zigzag(slot)), Token: zigzag(token), Warp: int32(zigzag(warp))})
		}
		if at > len(b) {
			k.Fail(fmt.Errorf("cache: MSHR entry %d: truncated or corrupt waiter", i))
			return
		}
		if slices.Contains(f.keys[:i], m.LineAddr) {
			k.Fail(fmt.Errorf("cache: snapshot has two MSHR entries for line %#x", m.LineAddr))
			return
		}
	}
	k.Advance(at)
}
