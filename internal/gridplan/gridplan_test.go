package gridplan

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"poise/internal/testutil"
)

func TestEnumerateProperties(t *testing.T) {
	for _, tc := range []struct{ maxN, stepN, stepP int }{
		{24, 1, 1}, {24, 2, 2}, {24, 8, 8}, {24, 3, 5}, {1, 1, 1}, {7, 0, 0},
	} {
		grid := Enumerate(tc.maxN, tc.stepN, tc.stepP)
		seen := map[Coord]bool{}
		for _, c := range grid {
			if c.P < 1 || c.P > c.N || c.N > tc.maxN {
				t.Fatalf("%+v: invalid point %+v", tc, c)
			}
			if seen[c] {
				t.Fatalf("%+v: duplicate point %+v", tc, c)
			}
			seen[c] = true
		}
		// The corners the experiments rely on must always be present.
		for _, c := range []Coord{{tc.maxN, tc.maxN}, {tc.maxN, 1}, {1, 1}} {
			if !seen[c] {
				t.Fatalf("%+v: corner %+v missing", tc, c)
			}
		}
		// The diagonal is closed at StepN resolution.
		stepN := tc.stepN
		if stepN <= 0 {
			stepN = 1
		}
		for n := 1; n <= tc.maxN; n += stepN {
			if !seen[Coord{n, n}] {
				t.Fatalf("%+v: diagonal point (%d,%d) missing", tc, n, n)
			}
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a := Enumerate(24, 2, 3)
	b := Enumerate(24, 2, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration must be deterministic")
	}
}

func planForTest(points int) *Plan {
	p := &Plan{Version: PlanVersion}
	for _, c := range Enumerate(points, 2, 2) {
		p.Tasks = append(p.Tasks, Task{
			Tag: "cfg1", Kernel: "k1", Digest: "abcd", N: c.N, P: c.P,
		})
		p.Tasks = append(p.Tasks, Task{
			Tag: "cfg1", Kernel: "k2", Digest: "ef01", N: c.N, P: c.P, Seed: 7,
		})
	}
	return p
}

func TestPlanJSONLRoundTrip(t *testing.T) {
	p := planForTest(12)
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Tasks, back.Tasks) {
		t.Fatalf("round trip changed tasks:\nwant %+v\ngot  %+v", p.Tasks, back.Tasks)
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":       "",
		"not-json":    "hello world\n",
		"wrong-fmt":   `{"format":"other","version":1,"tasks":0}` + "\n",
		"bad-version": `{"format":"poiseplan","version":99,"tasks":0}` + "\n",
		"truncated":   `{"format":"poiseplan","version":1,"tasks":3}` + "\n" + `{"tag":"t","kernel":"k","n":2,"p":1}` + "\n",
		"bad-coord":   `{"format":"poiseplan","version":1,"tasks":1}` + "\n" + `{"tag":"t","kernel":"k","n":1,"p":2}` + "\n",
		"dup-task": `{"format":"poiseplan","version":1,"tasks":2}` + "\n" +
			`{"tag":"t","kernel":"k","n":2,"p":1}` + "\n" + `{"tag":"t","kernel":"k","n":2,"p":1}` + "\n",
	} {
		if _, err := ReadPlan(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadPlan accepted invalid input", name)
		}
	}
}

func measurementsFor(p *Plan) []Measurement {
	var ms []Measurement
	for _, t := range p.Tasks {
		ms = append(ms, Measurement{
			Tag: t.Tag, Kernel: t.Kernel, N: t.N, P: t.P,
			IPC: float64(t.N) + float64(t.P)/100, Cycles: int64(t.N * 1000),
		})
	}
	return ms
}

func TestMergeAnyShardCountIdentical(t *testing.T) {
	p := planForTest(12)
	full := measurementsFor(p)
	want, err := Merge(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4} {
		var shards [][]Measurement
		for i := 0; i < n; i++ {
			shards = append(shards, testutil.Deal(full, i, n))
		}
		got, err := Merge(shards...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("merge of %d shards differs from single-shard merge", n)
		}
		if err := p.Verify(got); err != nil {
			t.Fatalf("n=%d: complete merge failed verification: %v", n, err)
		}
	}
}

func TestMergeRejectsDuplicates(t *testing.T) {
	p := planForTest(6)
	ms := measurementsFor(p)
	if _, err := Merge(ms, ms[:1]); err == nil {
		t.Fatal("duplicate measurement must fail the merge")
	}
}

func TestVerifyCatchesMissingAndExtra(t *testing.T) {
	p := planForTest(6)
	ms := measurementsFor(p)
	if err := p.Verify(ms[1:]); err == nil {
		t.Fatal("missing measurement must fail verification")
	}
	extra := append(append([]Measurement(nil), ms...),
		Measurement{Tag: "cfg1", Kernel: "k1", N: 999, P: 999})
	if err := p.Verify(extra); err == nil {
		t.Fatal("extra measurement must fail verification")
	}
}

func TestMeasurementsJSONLRoundTrip(t *testing.T) {
	p := planForTest(8)
	ms := measurementsFor(p)
	var buf bytes.Buffer
	if err := WriteMeasurements(&buf, 1, 3, ms); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMeasurements(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, back) {
		t.Fatal("measurement round trip lost data")
	}
	// A plan file is not a measurement file and vice versa.
	var pbuf bytes.Buffer
	if err := WritePlan(&pbuf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMeasurements(bytes.NewReader(pbuf.Bytes())); err == nil {
		t.Fatal("ReadMeasurements accepted a plan file")
	}
	if _, err := ReadPlan(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadPlan accepted a measurement file")
	}
}

func TestKernelDigestMovesWithContent(t *testing.T) {
	k1 := testutil.ThrashKernel("dig", 16, 10, 4)
	k2 := testutil.ThrashKernel("dig", 16, 10, 4)
	if KernelDigest(k1) != KernelDigest(k2) {
		t.Fatal("identical kernels must digest identically")
	}
	k3 := testutil.ThrashKernel("dig", 16, 11, 4)
	if KernelDigest(k1) == KernelDigest(k3) {
		t.Fatal("changing the kernel must move the digest")
	}
	k4 := testutil.ThrashKernel("dig", 16, 10, 4)
	k4.Seed = 99
	if KernelDigest(k1) == KernelDigest(k4) {
		t.Fatal("changing the seed must move the digest")
	}
}

func TestKeyOrderMatchesCoordinateOrder(t *testing.T) {
	// Lexicographic key order must equal numeric (N, P) order, or the
	// merged point order would diverge from profile.Sweep's sort.
	var prev string
	for n := 1; n <= 120; n++ {
		for p := 1; p <= n; p++ {
			k := Task{Tag: "t", Kernel: "k", N: n, P: p}.Key()
			if prev != "" && !(prev < k) {
				t.Fatalf("key order broken: %s !< %s", prev, k)
			}
			prev = k
		}
	}
}
