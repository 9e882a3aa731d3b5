package sched

import (
	"slices"
	"testing"
)

// bowl is an IPC landscape with its one optimum at (n0, p0).
func bowl(n0, p0 int) func(n, p int) float64 {
	return func(n, p int) float64 { return -float64((n-n0)*(n-n0) + (p-p0)*(p-p0)) }
}

// TestSearchProbeSequences drives the search over synthetic IPC
// landscapes and pins every probe and the converged tuple. The
// sequences were recorded from the two implementations the search
// replaces, HIE (Poise's per-SM engine) and random-restart's copy; from
// names the one each came from. The copies differed only where a
// stride is zero or the start has p > N, and there the search keeps
// the HIE's rules: a zero N stride climbs p alone (random-restart first
// probed its start along N), zero strides probe nothing (it probed the
// start once), and p is clamped to N when the climb switches to p (it
// was not, so random-restart stopped at (4, 10) in "start p > N").
func TestSearchProbeSequences(t *testing.T) {
	for _, tc := range []struct {
		name             string
		from             string
		maxN, n, p       int
		strideN, strideP int
		ipc              func(n, p int) float64
		probes           [][2]int
		done             [2]int
	}{
		{"unimodal", "both", 24, 16, 8, 2, 4, bowl(9, 3),
			[][2]int{{16, 8}, {14, 8}, {18, 8}, {12, 8}, {10, 8}, {8, 8}, {9, 8}, {11, 8}, {9, 8}, {9, 4}, {9, 2}, {9, 6}, {9, 3}, {9, 5}}, [2]int{9, 3}},
		{"unimodal from below", "both", 24, 3, 1, 2, 4, bowl(11, 6),
			[][2]int{{3, 1}, {1, 1}, {5, 1}, {7, 1}, {9, 1}, {11, 1}, {13, 1}, {10, 1}, {12, 1}, {11, 1}, {11, 5}, {11, 9}, {11, 3}, {11, 7}, {11, 4}, {11, 6}}, [2]int{11, 6}},
		{"flat", "both", 24, 12, 6, 2, 4, func(int, int) float64 { return 1 },
			[][2]int{{12, 6}, {10, 6}, {14, 6}, {11, 6}, {13, 6}, {12, 6}, {12, 2}, {12, 10}, {12, 4}, {12, 8}, {12, 5}, {12, 7}}, [2]int{12, 6}},
		{"tie between neighbours", "both", 24, 10, 5, 2, 4, func(n, p int) float64 {
			if n == 8 || n == 12 {
				return 2
			}
			return 1
		}, [][2]int{{10, 5}, {8, 5}, {12, 5}, {6, 5}, {7, 5}, {9, 5}, {8, 5}, {8, 1}, {8, 3}, {8, 7}, {8, 4}, {8, 6}}, [2]int{8, 5}},
		{"optimum at N = 1", "both", 24, 6, 3, 2, 4, func(n, p int) float64 { return -float64(n) - 0.1*float64(p) },
			[][2]int{{6, 3}, {4, 3}, {8, 3}, {2, 2}, {1, 1}, {3, 2}, {1, 1}}, [2]int{1, 1}},
		{"optimum at N = maxN", "both", 24, 20, 2, 2, 4, func(n, p int) float64 { return float64(n) + 0.1*float64(p) },
			[][2]int{{20, 2}, {18, 2}, {22, 2}, {24, 2}, {23, 2}, {24, 2}, {24, 6}, {24, 10}, {24, 14}, {24, 18}, {24, 22}, {24, 20}, {24, 24}, {24, 23}}, [2]int{24, 24}},
		{"small maxN", "both", 4, 3, 2, 2, 4, bowl(4, 1),
			[][2]int{{3, 2}, {1, 1}, {2, 2}, {4, 2}, {4, 2}, {4, 4}, {4, 1}, {4, 3}}, [2]int{4, 1}},
		{"odd strides", "both", 24, 12, 6, 3, 3, bowl(7, 2),
			[][2]int{{12, 6}, {9, 6}, {15, 6}, {6, 6}, {3, 3}, {5, 5}, {7, 6}, {4, 4}, {5, 5}, {5, 2}, {5, 1}, {5, 3}}, [2]int{5, 2}},
		{"start p > N", "HIE", 24, 4, 10, 2, 4, bowl(4, 3),
			[][2]int{{4, 4}, {2, 2}, {6, 6}, {3, 3}, {5, 5}, {4, 4}, {4, 2}, {4, 3}}, [2]int{4, 3}},
		{"zero N stride", "HIE", 24, 8, 4, 0, 4, bowl(8, 7),
			[][2]int{{8, 4}, {8, 8}, {8, 6}, {8, 7}}, [2]int{8, 7}},
		{"zero N stride, start p > N", "HIE", 24, 4, 10, 0, 4, bowl(4, 7),
			[][2]int{{4, 10}, {4, 6}, {4, 2}, {4, 4}, {4, 5}}, [2]int{4, 4}},
		{"zero p stride", "both", 24, 8, 4, 2, 0, bowl(11, 2),
			[][2]int{{8, 4}, {6, 4}, {10, 4}, {12, 4}, {9, 4}, {11, 4}}, [2]int{11, 4}},
		{"zero strides", "HIE", 24, 8, 4, 0, 0, bowl(3, 3),
			nil, [2]int{8, 4}},
	} {
		var s Search
		s.Start(tc.n, tc.p, tc.strideN, tc.strideP)
		var probes [][2]int
		for {
			n, p, done := s.Next(tc.maxN, tc.strideP)
			if done {
				// A climb ends on p, unless there was none.
				onP := tc.strideN > 0 || tc.strideP > 0
				if [2]int{n, p} != tc.done || [2]int{s.N, s.P} != tc.done || s.OnP != onP {
					t.Errorf("%s (%s): converged on (%d, %d), search at (%d, %d) on p %v, want %v on p %v",
						tc.name, tc.from, n, p, s.N, s.P, s.OnP, tc.done, onP)
				}
				break
			}
			if len(probes) > 64 {
				t.Fatalf("%s (%s): no convergence after %v", tc.name, tc.from, probes)
			}
			probes = append(probes, [2]int{n, p})
			s.Record(tc.ipc(n, p))
		}
		if !slices.Equal(probes, tc.probes) {
			t.Errorf("%s (%s): probes\n %v\nwant\n %v", tc.name, tc.from, probes, tc.probes)
		}
	}
}
