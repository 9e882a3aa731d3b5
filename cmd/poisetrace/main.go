// Command poisetrace generates and inspects poisetrace containers.
//
// -gen writes a synthetic trace of roughly -size-mb megabytes (every
// warp's stream is a window into one pseudo-random line walk) and
// prints its digest, computed from the walk itself before the
// container is written: the same line -stat prints for the container,
// from code that shares nothing with the writer or the reader.
//
// -stat drains a container through the streaming Scanner and prints a
// deterministic digest: workload identity, record and access counts,
// and an FNV-1a checksum over every record in stream order. Diffing it
// against -gen's line checks the reader against an independent oracle.
// -max-heap-mb turns the bounded-memory claim into an enforced
// assertion: the process fails if the Go heap ever grew past the bound.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
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
		if err := digest(os.Stdout, *stat, *maxHeap); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// generate builds a -size-mb container: kernels of -warps warps whose
// streams are overlapping windows into one pseudo-random line walk per
// kernel. It prints the digest -stat prints, computed from the walk
// before the container is written.
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
	d := newDigester()
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
		}
		streams := make([][]uint64, warps)
		for g := range streams {
			kt.WarpIters[g] = iters
			streams[g] = base[g : g+iters]
			d.record(ki, 0, g, streams[g])
		}
		rep, err := traceio.NewReplay(kt.Name+"/slot0", streams)
		if err != nil {
			return err
		}
		kt.Streams = []*traceio.Replay{rep}
		tr.Kernels = append(tr.Kernels, kt)
	}
	if err := traceio.WriteFile(path, tr); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d bytes\n", path, fi.Size())
	d.print(out, tr.Name, kernels)
	return nil
}

// digester accumulates the canonical stream digest: FNV-1a over every
// record's (kernel, slot, warp, length, addresses), in stream order.
type digester struct {
	h                 hash.Hash64
	buf               [8]byte
	records, accesses int64
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) record(kernel, slot, warp int, addrs []uint64) {
	d.put(uint64(kernel))
	d.put(uint64(slot))
	d.put(uint64(warp))
	d.put(uint64(len(addrs)))
	d.records++
	d.accesses += int64(len(addrs))
	for _, a := range addrs {
		d.put(a)
	}
}

func (d *digester) print(out io.Writer, name string, kernels int) {
	fmt.Fprintf(out, "workload %s kernels %d records %d accesses %d checksum %016x\n",
		name, kernels, d.records, d.accesses, d.h.Sum64())
}

// digest prints the canonical stream digest of a container, read
// through the streaming Scanner.
func digest(out io.Writer, path string, maxHeapMB int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc, err := traceio.NewScanner(f)
	if err != nil {
		return err
	}
	d := newDigester()
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		d.record(rec.Kernel, rec.Slot, rec.Warp, rec.Addrs)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	d.print(out, sc.Name(), len(sc.Kernels()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := ms.HeapSys >> 20
	fmt.Fprintf(os.Stderr, "stream scan peak heap %d MB (GOMEMLIMIT=%s)\n",
		heapMB, orUnset(os.Getenv("GOMEMLIMIT")))
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
