package sched

// Search is the local search of the paper's HIE (§VI-B), which
// random-restart runs from random tuples (§VII-J): a stride-halving
// hill-climb over the warp-tuple, first along N and then along p with
// p ≤ N. It probes the current point and its two stride-neighbours,
// moves to a neighbour that measured strictly better (the lower one on
// a tie) keeping the stride, else halves the stride; at stride zero it
// switches from N to p, or stops. Measured IPCs are cached per axis.
//
// The caller owns the IPC window and the warm-up and sampling around
// each probe: Next names the tuple to sample, Record takes its IPC.
// Each policy's codec walks these fields in its own wire order.
type Search struct {
	N, P     int             // the current tuple
	OnP      bool            // climbing p (else N)
	Stride   int             // the active axis's stride
	Probe    int             // the position on the active axis being sampled
	Measured map[int]float64 // IPC by position on the active axis
}

// Start begins a search at (n, p). A zero N stride climbs p alone, and
// zero strides climb nothing: Next then returns (n, min(p, n)), and the
// axis stays on N, where the HIE's checkpoints have always had it.
func (s *Search) Start(n, p, strideN, strideP int) {
	s.N, s.P = n, p
	s.OnP, s.Stride = false, strideN
	if strideN == 0 && strideP > 0 {
		s.OnP, s.Stride = true, strideP
	}
	s.Measured = map[int]float64{}
}

// Record stores the IPC measured at the tuple Next last named.
func (s *Search) Record(ipc float64) { s.Measured[s.Probe] = ipc }

// Next returns the tuple to probe next (done false) or the tuple the
// search converged on (done true). maxN bounds N; strideP is the stride
// the climb along p starts from once N has converged.
func (s *Search) Next(maxN, strideP int) (n, p int, done bool) {
	for s.Stride > 0 {
		cur, hi := s.N, maxN
		if s.OnP {
			cur, hi = s.P, s.N
		}
		left, right := cur-s.Stride, cur+s.Stride
		if _, ok := s.Measured[cur]; !ok {
			return s.probe(cur)
		}
		if _, ok := s.Measured[left]; left >= 1 && !ok {
			return s.probe(left)
		}
		if _, ok := s.Measured[right]; right <= hi && !ok {
			return s.probe(right)
		}
		best := cur
		if left >= 1 && s.Measured[left] > s.Measured[best] {
			best = left
		}
		if right <= hi && s.Measured[right] > s.Measured[best] {
			best = right
		}
		if best != cur {
			if s.OnP {
				s.P = best
			} else {
				s.N, s.P = best, min(s.P, best)
			}
			continue
		}
		if s.Stride /= 2; s.Stride == 0 && !s.OnP {
			s.OnP, s.Stride, s.P = true, strideP, min(s.P, s.N)
			s.Measured = map[int]float64{}
		}
	}
	s.P = min(s.P, s.N)
	return s.N, s.P, true
}

// probe makes pos on the active axis the pending probe and returns its
// tuple: p follows N down while N is climbed.
func (s *Search) probe(pos int) (n, p int, done bool) {
	s.Probe = pos
	if s.OnP {
		return s.N, pos, false
	}
	return pos, min(s.P, pos), false
}
