package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateThenDigestBothWays: a generated container of about a
// megabyte, plain and gzipped, digests through the streaming Scanner
// to exactly the line the generator computed from its own random walk
// before writing, and that line accounts for every record written.
func TestGenerateThenDigestBothWays(t *testing.T) {
	for _, name := range []string{"t.ptrace", "t.ptrace.gz"} {
		path := filepath.Join(t.TempDir(), name)
		var gen bytes.Buffer
		if err := generate(&gen, path, 1, 64, 2); err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		var streamed bytes.Buffer
		if err := digest(&streamed, path, 0); err != nil {
			t.Fatalf("streamed digest of %s: %v", name, err)
		}
		if streamed.String() != gen.String() {
			t.Fatalf("%s digests differ:\n generated %s streamed  %s", name, gen.String(), streamed.String())
		}
		if !strings.HasPrefix(streamed.String(), "workload synthetic kernels 2 records 128 accesses ") {
			t.Fatalf("%s digest line: %q", name, streamed.String())
		}
	}
}

// TestGenerateAndDigestRefuse: bad sizes, a missing file and bytes that
// are not a container are errors, not panics; the heap bound is enforced.
func TestGenerateAndDigestRefuse(t *testing.T) {
	dir := t.TempDir()
	var sink bytes.Buffer
	for _, bad := range [][3]int{{0, 64, 1}, {1, 60, 1}, {1, 64, 0}, {1, 1 << 20, 1}} {
		if err := generate(&sink, filepath.Join(dir, "bad.ptrace"), bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("generate accepted size %d MB, %d warps, %d kernels", bad[0], bad[1], bad[2])
		}
	}
	if err := digest(&sink, filepath.Join(dir, "absent.ptrace"), 0); err == nil {
		t.Fatal("digest of a missing file succeeded")
	}
	path := filepath.Join(dir, "ok.ptrace")
	if err := generate(&sink, path, 1, 64, 1); err != nil {
		t.Fatal(err)
	}
	// HeapSys is never below a megabyte or two, so a bound of 1 must trip.
	if err := digest(&sink, path, 1); err == nil || !strings.Contains(err.Error(), "over the 1 MB bound") {
		t.Fatalf("digest under a 1 MB heap bound: %v", err)
	}
}
