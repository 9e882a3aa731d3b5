package dram

import (
	"testing"

	"poise/internal/config"
)

func TestAccessLatencyUnloaded(t *testing.T) {
	d := New(config.Default())
	got := d.Access(0x123, 1000)
	// Service (12) + latency (160).
	if got != 1000+12+160 {
		t.Fatalf("return = %d, want 1172", got)
	}
	if d.Accesses != 1 {
		t.Fatal("access count")
	}
}

func TestQueueingAccumulates(t *testing.T) {
	d := New(config.Default())
	line := uint64(0x42)
	a := d.Access(line, 1000)
	b := d.Access(line, 1000) // same partition: serialised on the bus
	if b != a+12 {
		t.Fatalf("second access must queue one service time: %d vs %d", b, a)
	}
	if d.QueueDelay != 12 {
		t.Fatalf("queue delay = %d", d.QueueDelay)
	}
}

func TestPartitionSpread(t *testing.T) {
	d := New(config.Default())
	seen := map[int]bool{}
	for i := uint64(0); i < 256; i++ {
		seen[d.Partition(i)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("interleaving reached %d of 6 partitions", len(seen))
	}
}

func TestReset(t *testing.T) {
	d := New(config.Default())
	d.Access(1, 100)
	d.Reset()
	if d.Accesses != 0 || d.BusyCycles != 0 {
		t.Fatal("reset must clear stats")
	}
	if got := d.Access(1, 100); got != 272 {
		t.Fatalf("reset must clear servers: %d", got)
	}
}
