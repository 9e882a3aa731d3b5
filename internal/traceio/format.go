package traceio

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"poise/internal/runner"
	"poise/internal/snap"
	"poise/internal/trace"
)

// The "poisetrace" container format, version 1:
//
//	magic   "POISETRACE", newline               (snap.TraceMagic, 11 bytes)
//	uvarint version                             (snap.TraceVersion, 1)
//	uvarint headerLen, headerLen bytes of JSON  (launch geometry + body)
//	streams for each kernel (header order),
//	        for each slot 0..Slots-1,
//	        for each warp 0..TotalWarps-1:
//	          uvarint count
//	          count × zigzag-varint deltas of cache-line indices
//	          (address/LineBytes; first delta is relative to 0)
//	trailer "POISEEND"                          (8 bytes, then EOF)
//
// Per-warp streams are delta-encoded at line granularity, so sweeps
// and streams compress to a byte or two per access and the whole file
// gzips well; pass WriteOptions.Gzip (or a .gz path to WriteFile) to
// compress on the way out. The readers transparently detect gzip input.
const (
	formatMagic   = snap.TraceMagic
	formatTrailer = "POISEEND"
	formatVersion = snap.TraceVersion

	// maxHeaderLen bounds the JSON header a reader will allocate for, so
	// a corrupt length prefix cannot OOM the process.
	maxHeaderLen = 16 << 20
	// maxStreamLen bounds one per-warp stream's element count.
	maxStreamLen = 1 << 28
	// maxLineIndex keeps line*LineBytes inside uint64 (the synthetic
	// pattern regions sit just below 2^62, i.e. line indices near 2^55).
	// Validate enforces the same bound on addresses, so Write never
	// produces a container the reader refuses.
	maxLineIndex = int64(1) << 56

	// maxTotalWarps / maxSlots bound the launch geometry a trace may
	// declare, so a corrupt or hostile header cannot drive the
	// pre-stream allocations (or TotalWarps overflow) before the
	// per-stream limits kick in. 4M warps is ~64x the largest real
	// GPU launch the simulator would ever see.
	maxTotalWarps = 1 << 22
	maxSlots      = 1 << 16
	// maxArenaReserve bounds, in addresses, what streaming ingest sets
	// aside for a slot's arena on the strength of its first stream and
	// the declared warp count — a header can declare 4M warps in a few
	// hundred bytes. A larger arena grows by append from there.
	maxArenaReserve = 1 << 22

	// writeChunk is how many encoded bytes Write gathers before handing
	// them to the underlying writer.
	writeChunk = 64 << 10
)

// header is the JSON-encoded metadata block of a trace file. It
// mirrors Trace minus the address streams.
type header struct {
	Workload        string
	MemorySensitive bool `json:",omitempty"`
	Kernels         []kernelHeader
}

type kernelHeader struct {
	Name             string
	Body             []instrSpec
	Slots            int
	WarpsPerBlock    int
	Blocks           int
	MaxWarpsPerSched int `json:",omitempty"`
	MaxBlocksPerSM   int `json:",omitempty"`
	WarpIters        []int
}

// instrSpec is the serialised form of one trace.Instr. Kind is a
// string so files stay self-describing and stable across refactors of
// the OpKind enum.
type instrSpec struct {
	Kind    string
	Slot    int  `json:",omitempty"`
	UseDist int  `json:",omitempty"`
	DepALU  bool `json:",omitempty"`
}

func toSpec(ins trace.Instr) instrSpec {
	s := instrSpec{Slot: ins.Slot, UseDist: ins.UseDist, DepALU: ins.DepALU}
	switch ins.Kind {
	case trace.OpALU:
		s.Kind = "alu"
	case trace.OpLoad:
		s.Kind = "load"
	case trace.OpStore:
		s.Kind = "store"
	default:
		s.Kind = fmt.Sprintf("op%d", ins.Kind)
	}
	return s
}

func (s instrSpec) instr() (trace.Instr, error) {
	ins := trace.Instr{Slot: s.Slot, UseDist: s.UseDist, DepALU: s.DepALU}
	switch s.Kind {
	case "alu":
		ins.Kind = trace.OpALU
	case "load":
		ins.Kind = trace.OpLoad
	case "store":
		ins.Kind = trace.OpStore
	default:
		return ins, fmt.Errorf("unknown instruction kind %q", s.Kind)
	}
	return ins, nil
}

// WriteOptions configures Write.
type WriteOptions struct {
	// Gzip compresses the container.
	Gzip bool
}

// Write serialises t to w in the poisetrace v1 format. Gzipped, on
// more than one worker, w is written from a goroutine of Write's own,
// one call at a time and never after Write returns.
func Write(w io.Writer, t *Trace, opts WriteOptions) error {
	if err := t.Validate(); err != nil {
		return err
	}
	out := w
	var gz *gzip.Writer
	if opts.Gzip {
		gz = gzip.NewWriter(w)
		out = gz
	}
	hdrJSON, err := json.Marshal(headerOf(t))
	if err != nil {
		return fmt.Errorf("traceio: encoding header: %w", err)
	}

	// Everything is encoded into one reused chunk and handed on whole:
	// a Write per varint is most of what serialising would cost. With
	// more than one worker, gzip gets its own goroutine, fed through a
	// pipe: a Write returns once the goroutine has copied the chunk
	// out, so the next chunk is encoded while this one is deflated. The
	// gzip layer gets the same bytes in the same order either way, so
	// the container does not depend on the worker count.
	chunk := make([]byte, 0, writeChunk+binary.MaxVarintLen64)
	var pw *io.PipeWriter
	var deflated chan error // the goroutine's verdict
	if gz != nil && runner.NumWorkers(0) > 1 {
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		deflated = make(chan error, 1)
		go func(dst io.Writer, buf []byte) {
			_, err := io.CopyBuffer(dst, pr, buf)
			pr.CloseWithError(err) // fails the Write that waits on it
			deflated <- err
		}(out, make([]byte, cap(chunk)))
		out = pw
	}
	flush := func() error {
		_, err := out.Write(chunk)
		chunk = chunk[:0]
		return err
	}
	chunk = append(chunk, formatMagic...)
	chunk = binary.AppendUvarint(chunk, formatVersion)
	chunk = binary.AppendUvarint(chunk, uint64(len(hdrJSON)))
	chunk = append(chunk, hdrJSON...)
	for _, kt := range t.Kernels {
		for _, rep := range kt.Streams {
			for g := range kt.TotalWarps() {
				stream := rep.warpStream(g)
				if len(chunk) >= writeChunk {
					if err := flush(); err != nil {
						return err
					}
				}
				chunk = binary.AppendUvarint(chunk, uint64(len(stream)))
				prev := int64(0)
				for _, addr := range stream {
					line := int64(addr / trace.LineBytes)
					if d := line - prev; d >= -64 && d < 64 {
						chunk = append(chunk, byte(d<<1^d>>63)) // a one-byte zigzag varint
					} else {
						chunk = binary.AppendVarint(chunk, d)
					}
					prev = line
					if len(chunk) >= writeChunk {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	chunk = append(chunk, formatTrailer...)
	if err := flush(); err != nil {
		return err
	}
	if pw != nil {
		pw.Close()
		if err := <-deflated; err != nil {
			return err
		}
	}
	if gz != nil {
		return gz.Close()
	}
	return nil
}

// headerOf is t's container header: everything but the streams.
func headerOf(t *Trace) header {
	hdr := header{Workload: t.Name, MemorySensitive: t.MemorySensitive}
	for _, kt := range t.Kernels {
		kh := kernelHeader{
			Name:             kt.Name,
			Slots:            kt.Slots,
			WarpsPerBlock:    kt.WarpsPerBlock,
			Blocks:           kt.Blocks,
			MaxWarpsPerSched: kt.MaxWarpsPerSched,
			MaxBlocksPerSM:   kt.MaxBlocksPerSM,
			WarpIters:        kt.WarpIters,
		}
		for _, ins := range kt.Body {
			kh.Body = append(kh.Body, toSpec(ins))
		}
		hdr.Kernels = append(hdr.Kernels, kh)
	}
	return hdr
}
