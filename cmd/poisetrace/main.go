// Command poisetrace generates and inspects poisetrace containers.
//
// -gen writes a synthetic trace of roughly -size-mb megabytes without
// ever holding the address data in memory (every warp's stream is a
// view into one shared random-walk buffer, and Write streams the
// encoding), so CI can cheaply materialise traces far larger than the
// memory it grants the reader.
//
// -stat drains a container through the streaming Scanner and prints a
// deterministic digest: workload identity, record and access counts,
// and an FNV-1a checksum over every record in stream order. With
// -whole the same digest is computed from the whole-trace Read path
// instead — diffing the two outputs pins the streaming reader to the
// materialising one on any input. -max-heap-mb turns the bounded-
// memory claim into an enforced assertion: the process fails if the
// Go heap ever grew past the bound.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"poise/internal/trace"
	"poise/internal/traceio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("poisetrace: ")
	var (
		gen     = flag.Bool("gen", false, "generate a synthetic container to -o")
		out     = flag.String("o", "", "-gen output path (.gz compresses)")
		sizeMB  = flag.Int("size-mb", 100, "-gen approximate uncompressed container size")
		warps   = flag.Int("warps", 16384, "-gen total warps per kernel")
		kernels = flag.Int("kernels", 1, "-gen kernel count")
		stat    = flag.String("stat", "", "scan this container and print its digest")
		whole   = flag.Bool("whole", false, "-stat: use the materialising Read path instead of the Scanner")
		maxHeap = flag.Int("max-heap-mb", 0, "-stat: fail if the Go heap grows past this many MB (0 = unchecked)")
	)
	flag.Parse()

	switch {
	case *gen:
		if *out == "" {
			log.Fatal("-gen needs -o")
		}
		if err := generate(os.Stdout, *out, *sizeMB, *warps, *kernels); err != nil {
			log.Fatal(err)
		}
	case *stat != "":
		if err := digest(os.Stdout, *stat, *whole, *maxHeap); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// generate builds a -size-mb container: kernels of -warps warps whose
// streams are overlapping views into one shared pseudo-random line
// walk, so the trace encodes size-mb worth of varint deltas while the
// generator holds only the walk buffer.
func generate(out io.Writer, path string, sizeMB, warps, kernels int) error {
	if sizeMB <= 0 || warps <= 0 || kernels <= 0 || warps%8 != 0 {
		return fmt.Errorf("-size-mb, -warps and -kernels must be positive, -warps a multiple of 8")
	}
	// A random walk over 2^20 lines yields ~3-byte zigzag deltas, so
	// accesses ≈ bytes/3.
	iters := sizeMB * 1_000_000 / 3 / warps / kernels
	if iters < 1 {
		return fmt.Errorf("size %dMB too small for %d warps x %d kernels", sizeMB, warps, kernels)
	}
	tr := &traceio.Trace{Name: "synthetic", MemorySensitive: true}
	for ki := 0; ki < kernels; ki++ {
		base := make([]uint64, warps+iters)
		x := uint64(ki)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
		for j := range base {
			x = x*6364136223846793005 + 1442695040888963407
			base[j] = (x >> 33 % (1 << 20)) * trace.LineBytes
		}
		b := &trace.BodyBuilder{}
		b.Load(1)
		b.ALU(2)
		kt := &traceio.KernelTrace{
			KernelMeta: traceio.KernelMeta{
				Name:          fmt.Sprintf("synthetic#%d", ki),
				Body:          b.Body(),
				Slots:         1,
				WarpsPerBlock: 8,
				Blocks:        warps / 8,
				WarpIters:     make([]int, warps),
			},
			Streams: [][][]uint64{make([][]uint64, warps)},
		}
		for g := 0; g < warps; g++ {
			kt.WarpIters[g] = iters
			kt.Streams[0][g] = base[g : g+iters]
		}
		tr.Kernels = append(tr.Kernels, kt)
	}
	if err := traceio.WriteFile(path, tr); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d kernels, %d records, %d accesses, %d bytes\n",
		path, kernels, kernels*warps, kernels*warps*iters, fi.Size())
	return nil
}

// digest prints the canonical stream digest of a container. The
// streaming and whole-trace paths visit records in the same
// (kernel, slot, warp) order, so their output is byte-identical
// whenever both succeed.
func digest(out io.Writer, path string, whole bool, maxHeapMB int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	var name string
	var nkernels, records, accesses int64
	if whole {
		t, err := traceio.Read(f)
		if err != nil {
			return err
		}
		name, nkernels = t.Name, int64(len(t.Kernels))
		for ki, kt := range t.Kernels {
			for slot, streams := range kt.Streams {
				for g, stream := range streams {
					put(uint64(ki))
					put(uint64(slot))
					put(uint64(g))
					put(uint64(len(stream)))
					records++
					accesses += int64(len(stream))
					for _, a := range stream {
						put(a)
					}
				}
			}
		}
	} else {
		sc, err := traceio.NewScanner(f)
		if err != nil {
			return err
		}
		name, nkernels = sc.Name(), int64(len(sc.Kernels()))
		for {
			rec, ok := sc.Next()
			if !ok {
				break
			}
			put(uint64(rec.Kernel))
			put(uint64(rec.Slot))
			put(uint64(rec.Warp))
			put(uint64(len(rec.Addrs)))
			records++
			accesses += int64(len(rec.Addrs))
			for _, a := range rec.Addrs {
				put(a)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "workload %s kernels %d records %d accesses %d checksum %016x\n",
		name, nkernels, records, accesses, h.Sum64())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := ms.HeapSys >> 20
	mode := "stream"
	if whole {
		mode = "whole"
	}
	fmt.Fprintf(os.Stderr, "%s scan peak heap %d MB (GOMEMLIMIT=%s)\n",
		mode, heapMB, orUnset(os.Getenv("GOMEMLIMIT")))
	if maxHeapMB > 0 && heapMB > uint64(maxHeapMB) {
		return fmt.Errorf("heap grew to %d MB, over the %d MB bound", heapMB, maxHeapMB)
	}
	return nil
}

func orUnset(s string) string {
	if strings.TrimSpace(s) == "" {
		return "unset"
	}
	return s
}
