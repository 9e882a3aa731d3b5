package traceio

import (
	"bytes"
	"testing"

	"poise/internal/trace"
)

// benchContainer serialises the synthetic benchmark trace once: one
// kernel, 2048 warps × 64 addresses.
func benchContainer(b *testing.B) []byte {
	b.Helper()
	tr := syntheticTrace(b, 8, 256, 64)
	var buf bytes.Buffer
	if err := Write(&buf, tr, WriteOptions{}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadWhole materialises the full Trace: the collect-all
// wrapper's cost. The bare Scanner drain is the ledger's
// traceio.scan_mb_per_s row (bench/).
func BenchmarkReadWhole(b *testing.B) {
	data := benchContainer(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRecords builds the per-warp streams the replay construction
// benchmarks consume: 2048 warps × 64 addresses with per-warp overlap.
func benchRecords() [][]uint64 {
	records := make([][]uint64, 2048)
	for g := range records {
		stream := make([]uint64, 64)
		for j := range stream {
			stream[j] = uint64((g*7+j)%4096) * trace.LineBytes
		}
		records[g] = stream
	}
	return records
}

// BenchmarkReplayFlat measures building one slot's flat replay from
// streamed records: one arena + one offset index however many warps.
func BenchmarkReplayFlat(b *testing.B) {
	records := benchRecords()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var addrs int
		for _, stream := range records {
			addrs += len(stream)
		}
		builder := newReplayBuilder("bench", len(records), addrs)
		for _, stream := range records {
			builder.warp(stream)
		}
		if _, err := builder.finish(); err != nil {
			b.Fatal(err)
		}
	}
}
