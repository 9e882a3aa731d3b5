package cache

// VictimTags is the per-warp victim tag array used by CCWS (Rogers et
// al., MICRO 2012) to detect lost intra-warp locality: when a warp
// misses on a line whose tag sits in its own victim array, the miss is
// locality that thrashing destroyed. The CCWS policy raises the warp's
// lost-locality score on such events and throttles multithreading in
// response.
type VictimTags struct {
	perWarp int
	tags    [][]uint64 // ring buffer per warp
	next    []int

	// LostHits counts detections per warp since the last Drain.
	lost []int64
}

// NewVictimTags builds an array holding entriesPerWarp tags for each of
// warps warps (indexed by global warp id modulo warps).
func NewVictimTags(entriesPerWarp, warps int) *VictimTags {
	if entriesPerWarp < 1 {
		entriesPerWarp = 1
	}
	if warps < 1 {
		warps = 1
	}
	v := &VictimTags{
		perWarp: entriesPerWarp,
		tags:    make([][]uint64, warps),
		next:    make([]int, warps),
		lost:    make([]int64, warps),
	}
	for i := range v.tags {
		v.tags[i] = make([]uint64, entriesPerWarp)
	}
	return v
}

func (v *VictimTags) slot(warp int32) int {
	w := int(warp)
	if w < 0 {
		w = -w
	}
	return w % len(v.tags)
}

// NoteEviction records that the line with tag la owned by warp was
// evicted.
func (v *VictimTags) NoteEviction(warp int32, la uint64) {
	s := v.slot(warp)
	// Tag 0 is reserved as "empty"; offset stored tags by 1.
	v.tags[s][v.next[s]] = la + 1
	v.next[s] = (v.next[s] + 1) % v.perWarp
}

// NoteMiss checks whether warp's miss on line la matches one of its
// victim tags; if so the lost-locality counter is bumped and the tag
// consumed.
func (v *VictimTags) NoteMiss(warp int32, la uint64) {
	s := v.slot(warp)
	for i, t := range v.tags[s] {
		if t == la+1 {
			v.lost[s]++
			v.tags[s][i] = 0
			return
		}
	}
}

// Drain returns the accumulated lost-locality counts per warp slot and
// resets them.
func (v *VictimTags) Drain() []int64 {
	out := append([]int64(nil), v.lost...)
	for i := range v.lost {
		v.lost[i] = 0
	}
	return out
}
