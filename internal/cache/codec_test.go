package cache

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"poise/internal/config"
	"poise/internal/snap/snaptest"
)

// TestHostileVictimGeometry: a payload may claim a victim tag array
// inside the walk's limits and far larger than itself (2^14 warps of
// 2^10 tags in under 200 bytes; the limits admit 2^40 tags). Each tag
// takes a byte at least, so the walk refuses a geometry whose tags do
// not fit in what is left of the payload, before it allocates them.
func TestHostileVictimGeometry(t *testing.T) {
	const perWarp, warps = 1 << 10, 1 << 14
	hostile := snaptest.Out(smallCache(t, config.IndexHash).Walk)
	hostile[len(hostile)-1] = 1 // the victim tag array is attached
	hostile = binary.AppendUvarint(hostile, perWarp)
	hostile = binary.AppendUvarint(hostile, warps)
	hostile = append(hostile, make([]byte, 100)...) // and a hundred tags follow
	c := smallCache(t, config.IndexHash)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := snaptest.In(c.Walk, hostile)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "victim tag geometry") {
		t.Fatalf("a %d-byte payload claiming %dx%d victim tags: err %v", len(hostile), warps, perWarp, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes", len(hostile), alloc)
	}

	// An honest array restores, and walks out to the bytes it came from.
	c.EnableVictimTags(4, 8)
	c.Victim().NoteEviction(3, 77)
	data := snaptest.Out(c.Walk)
	back := smallCache(t, config.IndexHash)
	if err := snaptest.In(back.Walk, data); err != nil || !bytes.Equal(snaptest.Out(back.Walk), data) {
		t.Fatalf("honest victim tags: err %v, re-encoding equal %v", err, bytes.Equal(snaptest.Out(back.Walk), data))
	}
}
