package sim_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"reflect"
	"testing"

	"poise/internal/config"
	"poise/internal/sched"
	"poise/internal/sim"
	"poise/internal/snap"
	"poise/internal/testutil"
)

// goldenAt is the cycle every golden kernel state is taken at: past the
// first sampling window of each stateful policy below, with fills in
// flight and warps of every age on the scoreboard.
const goldenAt = 7000

// goldenStates are the running-kernel containers in testdata that the
// PARENT of PR 24 wrote (c23bb98), one per policy codec that had no
// golden state: the thrash kernel on the tiny machine, interrupted at
// goldenAt, the kernel state in a KindTask container, gzipped.
var goldenStates = []struct {
	file string
	mk   func() sim.Policy
}{
	{"pr23_thrash_ccws", func() sim.Policy { return sched.NewCCWS(config.PoiseParams{TFeature: 2000}) }},
	{"pr23_thrash_apcm", func() sim.Policy { return sched.NewAPCM(config.PoiseParams{TFeature: 3000}) }},
	{"pr23_thrash_pcal", func() sim.Policy { return sched.NewPCALSWL(sched.TupleSource{}, pcalParams) }},
	{"pr23_thrash_random", func() sim.Policy { return sched.NewRandomRestart(7, rrParams) }},
	{"pr23_thrash_fixed", func() sim.Policy { return sim.Fixed{N: 3, P: 1} }},
}

// TestGoldenKernelStates: SnapshotKernel at the same point of the same
// run writes the bytes the parent commit wrote, under every policy
// codec, and each of the parent's states restores and finishes as the
// uninterrupted run does. A missing file is written and the test fails
// once: to pin new bytes on purpose, delete the file and run the test
// at the commit whose encoders are the reference (normally the parent
// of the change), never with the code under test.
func TestGoldenKernelStates(t *testing.T) {
	cfg := testutil.TinyConfig()
	k := testutil.ThrashKernel("thrash", 64, 40, 4)
	for _, gs := range goldenStates {
		t.Run(gs.file, func(t *testing.T) {
			g, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.TraceTuples = true
			p := gs.mk()
			_, err = g.Run(k, p, sim.RunOptions{Interrupt: &sim.InterruptCtl{AtCycle: goldenAt}})
			if !errors.Is(err, sim.ErrInterrupted) {
				t.Fatalf("want ErrInterrupted at cycle %d, got %v", goldenAt, err)
			}
			state, err := g.SnapshotKernel(p)
			if err != nil {
				t.Fatal(err)
			}
			sn := snap.Snapshot{Kind: snap.KindTask, Key: gs.file, Workload: k.Name, Cycle: g.Now(), State: state}
			got, err := sn.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := "testdata/" + gs.file + ".kernelstate.poisesnap.gz"
			gz, err := os.ReadFile(path)
			if errors.Is(err, os.ErrNotExist) {
				var buf bytes.Buffer
				zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
				zw.Write(got)
				zw.Close()
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s did not exist: written from this commit's encoders (%d bytes); commit it only if this commit is the reference", path, len(got))
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := snap.Decode(gz)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := want.Encode(); err != nil || !bytes.Equal(again, got) {
				t.Fatalf("the state at cycle %d is not the parent's bytes (%d bytes, parent %d, err %v)", goldenAt, len(got), len(again), err)
			}

			base, baseTally := runKernelBaseline(t, cfg, k, gs.mk(), sim.RunOptions{})
			g2, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g2.ResumeKernel(k, gs.mk(), sim.RunOptions{}, want.State)
			if err != nil {
				t.Fatalf("ResumeKernel: %v", err)
			}
			if !reflect.DeepEqual(base, res) || !reflect.DeepEqual(baseTally, schedTallies(g2)) {
				t.Fatalf("a state written by the parent commit resumes differently:\n base: %+v\n rest: %+v", base, res)
			}
		})
	}
}
