package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"poise/internal/config"
)

func mustSmallCache(index config.IndexFn) *Cache {
	c, err := New(config.CacheConfig{
		SizeBytes: 4 * 2 * 128, // 4 sets x 2 ways
		LineBytes: 128,
		Ways:      2,
		MSHRs:     4,
		Index:     index,
	})
	if err != nil {
		panic(err)
	}
	return c
}

func smallCache(t *testing.T, index config.IndexFn) *Cache {
	t.Helper()
	return mustSmallCache(index)
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(config.CacheConfig{SizeBytes: 100, LineBytes: 128, Ways: 2}); err == nil {
		t.Fatal("indivisible size must be rejected")
	}
	if _, err := New(config.CacheConfig{SizeBytes: 0, LineBytes: 128, Ways: 2}); err == nil {
		t.Fatal("zero size must be rejected")
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	const addr = 0x1000
	if r := c.Lookup(addr, 1, 0, true); r.Hit {
		t.Fatal("cold access must miss")
	}
	c.Fill(addr, 1, 0, true)
	if r := c.Lookup(addr, 1, 0, true); !r.Hit {
		t.Fatal("post-fill access must hit")
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestBypassFillDoesNotAllocate(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Lookup(0x2000, 1, 0, false)
	c.Fill(0x2000, 1, 0, false)
	if c.Contains(0x2000) {
		t.Fatal("bypassed fill must not install the line")
	}
	if c.Stats.Bypasses != 1 {
		t.Fatalf("Bypasses = %d, want 1", c.Stats.Bypasses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	// Three lines mapping to set 0 (4 sets, stride 4 lines): 2-way set.
	a0 := uint64(0 * 4 * 128)
	a1 := uint64(1 * 4 * 4 * 128 / 4) // 4 lines * 128 = one full wrap
	a1 = uint64(4 * 128)
	a2 := uint64(8 * 128)
	c.Fill(a0, 1, 0, true)
	c.Fill(a1, 1, 0, true)
	// Touch a0 so a1 becomes LRU.
	c.Lookup(a0, 1, 0, true)
	c.Fill(a2, 1, 0, true) // must evict a1
	if !c.Contains(a0) || !c.Contains(a2) {
		t.Fatal("a0 and a2 must be resident")
	}
	if c.Contains(a1) {
		t.Fatal("a1 should have been the LRU victim")
	}
	if c.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestIntraInterWarpClassification(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Fill(0x3000, 7, 0, true)
	// Each hit moves exactly one counter: the running intra/inter split
	// after each lookup.
	steps := []struct {
		warp         int32
		intra, inter int64
		what         string
	}{
		{7, 1, 0, "same-warp reuse must classify intra-warp"},
		{8, 1, 1, "cross-warp reuse must classify inter-warp"},
		{8, 2, 1, "after transfer the new toucher owns the line"}, // ownership moved to warp 8
	}
	for _, s := range steps {
		if r := c.Lookup(0x3000, s.warp, 0, true); !r.Hit {
			t.Fatalf("warp %d: resident line missed", s.warp)
		}
		if c.Stats.IntraWarpHits != s.intra || c.Stats.InterWarpHits != s.inter {
			t.Fatalf("%s: intra/inter = %d/%d, want %d/%d",
				s.what, c.Stats.IntraWarpHits, c.Stats.InterWarpHits, s.intra, s.inter)
		}
	}
}

func TestPolluteClassCounters(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Fill(0x4000, 1, 0, true)
	c.Lookup(0x4000, 1, 0, true)  // pollute hit
	c.Lookup(0x4000, 2, 0, false) // non-pollute hit
	c.Lookup(0x5000, 2, 0, false) // non-pollute miss
	s := c.Stats
	if s.PolluteAccesses != 1 || s.PolluteHits != 1 {
		t.Fatalf("pollute class wrong: %+v", s)
	}
	if s.NoPollAccesses != 2 || s.NoPollHits != 1 {
		t.Fatalf("non-pollute class wrong: %+v", s)
	}
	if s.PolluteHitRate() != 1 || s.NoPollHitRate() != 0.5 {
		t.Fatalf("class hit rates wrong: %v %v", s.PolluteHitRate(), s.NoPollHitRate())
	}
}

func TestStatsSubWindow(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Fill(0x100, 1, 0, true)
	c.Lookup(0x100, 1, 0, true)
	before := c.Stats
	c.Lookup(0x100, 1, 0, true)
	c.Lookup(0x900, 1, 0, true)
	d := c.Stats.Sub(before)
	if d.Accesses != 2 || d.Hits != 1 {
		t.Fatalf("window delta wrong: %+v", d)
	}
}

// TestStatsAddSubCarryEveryField gives every Stats field its own value
// and requires Add and Sub to carry each one: a field added to Stats
// and missed in either would silently drop out of kernel and workload
// results.
func TestStatsAddSubCarryEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(1000 * (i + 1)))
		vb.Field(i).SetInt(int64(i + 1))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if got, want := sum.Field(i).Int(), int64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Int(), int64(999*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Fill(0x100, 1, 0, true)
	c.Fill(0x200, 1, 0, true)
	if c.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d, want 2", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 || c.Contains(0x100) {
		t.Fatal("Flush must clear contents")
	}
}

// Property: occupancy never exceeds capacity, and fills minus evictions
// equals occupancy.
func TestOccupancyInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := mustSmallCache(config.IndexHash)
		for _, a := range addrs {
			addr := uint64(a) * 128
			if r := c.Lookup(addr, 1, 0, true); !r.Hit {
				c.Fill(addr, 1, 0, true)
			}
		}
		if c.Occupancy() > 8 {
			return false
		}
		return int64(c.Occupancy()) == c.Stats.Fills-c.Stats.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Contains agrees with a subsequent Lookup hit.
func TestContainsAgreesWithLookup(t *testing.T) {
	f := func(addrs []uint8) bool {
		c := mustSmallCache(config.IndexLinear)
		for i, a := range addrs {
			addr := uint64(a) * 128
			want := c.Contains(addr)
			got := c.Lookup(addr, int32(i%4), 0, true).Hit
			if want != got {
				return false
			}
			if !got {
				c.Fill(addr, int32(i%4), 0, true)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashSpreadsStridedAddresses(t *testing.T) {
	// Power-of-two strides collapse onto one set under linear indexing
	// but spread under hashing — the reason the baseline uses a hash.
	lin := smallCache(t, config.IndexLinear)
	hsh := smallCache(t, config.IndexHash)
	setsHitLin := map[uint64]bool{}
	setsHitHash := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		addr := uint64(i) * 4 * 128 // stride = set count
		setsHitLin[lin.setIndex(lin.LineAddr(addr))] = true
		setsHitHash[hsh.setIndex(hsh.LineAddr(addr))] = true
	}
	if len(setsHitLin) != 1 {
		t.Fatalf("linear indexing should collapse the stride, got %d sets", len(setsHitLin))
	}
	if len(setsHitHash) < 3 {
		t.Fatalf("hash indexing should spread the stride, got %d sets", len(setsHitHash))
	}
}

func TestDoubleFillRefreshesOnly(t *testing.T) {
	c := smallCache(t, config.IndexLinear)
	c.Fill(0x700, 1, 0, true)
	fills := c.Stats.Fills
	c.Fill(0x700, 2, 0, true)
	if c.Stats.Fills != fills {
		t.Fatal("re-fill of resident line must not count as a new fill")
	}
	if c.Occupancy() != 1 {
		t.Fatal("re-fill must not duplicate the line")
	}
}
