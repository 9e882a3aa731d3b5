package traceio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"poise/internal/atomicfile"
	"poise/internal/sim"
	"poise/internal/snap"
)

// WriteFile serialises t to path, gzip-compressing when the path ends
// in ".gz", through atomicfile.Write: a crash or a failed write leaves
// the previous file in place, never a torn container.
func WriteFile(path string, t *Trace) error {
	err := atomicfile.Write(path, func(f io.Writer) error {
		return Write(f, t, WriteOptions{Gzip: strings.HasSuffix(path, ".gz")})
	})
	if err != nil {
		return fmt.Errorf("traceio: writing %s: %w", path, err)
	}
	return nil
}

// LoadWorkloadFile streams one trace file into a replayable workload.
// The opener names what the file holds: a poisetrace container
// (optionally gzipped) flows through ReadWorkload (flat arenas, no
// whole-trace materialisation); anything else is parsed as a (possibly
// gzipped) simplified Accel-Sim kernel trace named after the file, then
// converted. A .ptrace/.ptrace.gz extension pins the container parser,
// so a corrupt container gets its strict diagnostics instead of falling
// through to the Accel-Sim text parser.
func LoadWorkloadFile(path string) (*sim.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, format, err := snap.Open(f, 0)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w (reading %s)", err, path)
	}
	if format == snap.Poisetrace || strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".ptrace") {
		w, _, err := ReadWorkload(br, nil)
		if err != nil {
			return nil, fmt.Errorf("%w (reading %s)", err, path)
		}
		return w, nil
	}
	t, err := ReadAccelSim(br, workloadNameFromPath(path))
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	w, err := t.Workload()
	if err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, path)
	}
	return w, nil
}

func workloadNameFromPath(path string) string {
	base := filepath.Base(path)
	for _, suffix := range []string{".gz", ".ptrace", ".trace", ".txt"} {
		base = strings.TrimSuffix(base, suffix)
	}
	return base
}

// LoadWorkloads loads trace-backed workloads from path: either one
// trace file or a directory of them (files with .ptrace, .ptrace.gz,
// .trace or .trace.gz extensions, non-recursive, name-sorted). Each
// trace becomes a replayable sim.Workload, streamed rather than read
// whole.
func LoadWorkloads(path string) ([]*sim.Workload, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	var files []string
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, fmt.Errorf("traceio: %w", err)
		}
		var names []string
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			if strings.HasSuffix(name, ".ptrace") || strings.HasSuffix(name, ".ptrace.gz") ||
				strings.HasSuffix(name, ".trace") || strings.HasSuffix(name, ".trace.gz") {
				names = append(names, name)
			}
		}
		// Walk in sorted file-name order, not directory iteration order:
		// catalogue insertion order determines the evaluation-set order
		// and the experiment cache tags, so it must be identical across
		// filesystems and platforms. The contract is pinned here (and by
		// TestLoadWorkloadsDirectorySortedWalk) rather than inherited
		// from whatever the directory listing happens to return.
		sort.Strings(names)
		for _, name := range names {
			files = append(files, filepath.Join(path, name))
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("traceio: no trace files (*.ptrace, *.ptrace.gz, *.trace, *.trace.gz) in %s", path)
		}
	} else {
		files = []string{path}
	}
	var out []*sim.Workload
	seen := map[string]string{}
	for _, f := range files {
		w, err := LoadWorkloadFile(f)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[w.Name]; dup {
			return nil, fmt.Errorf("traceio: workload %q appears in both %s and %s", w.Name, prev, f)
		}
		seen[w.Name] = f
		out = append(out, w)
	}
	return out, nil
}
