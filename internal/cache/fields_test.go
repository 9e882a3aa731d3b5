package cache

import (
	"testing"

	"poise/internal/config"
	"poise/internal/snap/snaptest"
)

// stateFields names every field of this package's serialised structs
// that a snapshot does not carry, and why (see sm's list).
var stateFields = map[string]string{
	"Cache.cfg":         "config",
	"Cache.ways":        "config",
	"Cache.setCount":    "config",
	"Cache.setShift":    "config",
	"Cache.setMask":     "config",
	"Cache.pow2":        "config",
	"MSHRFile.capacity": "config",
	"MSHRFile.keys":     "derived: MSHRFile.Walk",
	"MSHRFile.free":     "scratch",
}

func TestEveryFieldIsAccountedFor(t *testing.T) {
	t.Run("Cache", func(t *testing.T) {
		cfg := config.Default().Scale(2).L1
		src, _ := New(cfg)
		dst, _ := New(cfg)
		snaptest.Fill(src, stateFields)
		src.victim.perWarp = len(src.victim.tags[0]) // the ring size is the rings' length
		for i := range src.victim.next {
			src.victim.next[i] = i % src.victim.perWarp // cursors inside their rings
		}
		snaptest.Account(t, src, dst, (*Cache).Walk, stateFields)
	})
	t.Run("MSHRFile", func(t *testing.T) {
		src, dst := NewMSHRFile(4), NewMSHRFile(4)
		snaptest.Fill(src, stateFields)
		src.keys = src.keys[:len(src.ents)] // a key per entry, rewritten on the way out
		snaptest.Account(t, src, dst, (*MSHRFile).Walk, stateFields)
	})
}

// TestResetReachesEveryField: Reset (Clear for the MSHR file) returns
// every field that is not configuration to what the constructor built,
// whatever it held.
func TestResetReachesEveryField(t *testing.T) {
	t.Run("Cache", func(t *testing.T) {
		cfg := config.Default().Scale(2).L1
		c, _ := New(cfg)
		fresh, _ := New(cfg)
		snaptest.CheckReset(t, c, fresh, (*Cache).Reset, stateFields)
	})
	t.Run("MSHRFile", func(t *testing.T) {
		snaptest.CheckReset(t, NewMSHRFile(4), NewMSHRFile(4), func(f *MSHRFile) {
			// The live entries and the free pool share the registers.
			f.free = f.free[:f.capacity-len(f.ents)]
			f.Clear()
		}, stateFields)
	})
}
