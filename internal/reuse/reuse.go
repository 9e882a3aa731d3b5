// Package reuse computes LRU stack distances (reuse distances) for
// address streams. The paper's feature analysis (§V-B, Fig. 4) uses the
// reuse distance R of a kernel to explain when throttling the polluting
// warps can recover intra-warp locality: a footprint with R below the
// cache's line capacity fits once thrashing stops, a large R does not.
//
// The profiler here serves two roles in the reproduction: it calibrates
// the synthetic workloads to the per-benchmark R values reported in the
// paper, and it powers the Fig. 4 experiment.
package reuse

// Profiler tracks an address stream and reports the stack distance of
// each access: the number of *distinct* lines referenced since the
// previous access to the same line (infinite for first touches).
//
// The implementation keeps the classic LRU stack as a doubly linked
// list with a map index and counts depth by walking; streams in this
// project are short enough (millions of accesses, thousands of distinct
// lines) that the O(depth) walk is faster in practice than a balanced
// tree, and it has no dependencies.
type Profiler struct {
	index map[uint64]*node
	head  *node // most recently used
	tail  *node // least recently used
	size  int
	free  *node // nodes a Reset released, chained through next

	// Histogram of finite distances, capped; overflow counts lump into
	// the last bucket. ColdMisses counts first touches.
	hist       []int64
	capDist    int
	ColdMisses int64
	Accesses   int64
	sumDist    float64
	finite     int64
}

type node struct {
	addr       uint64
	prev, next *node
}

// NewProfiler returns a profiler whose histogram resolves distances up
// to maxDist (larger distances all count in the final bucket).
func NewProfiler(maxDist int) *Profiler {
	if maxDist < 1 {
		maxDist = 1
	}
	return &Profiler{
		index:   make(map[uint64]*node),
		hist:    make([]int64, maxDist+1),
		capDist: maxDist,
	}
}

// Touch records an access to line addr and returns its stack distance,
// or -1 for a cold (first) access.
func (p *Profiler) Touch(addr uint64) int {
	p.Accesses++
	n, ok := p.index[addr]
	if !ok {
		p.ColdMisses++
		if n = p.free; n != nil {
			p.free = n.next
			n.addr = addr
		} else {
			n = &node{addr: addr}
		}
		p.index[addr] = n
		p.pushFront(n)
		p.size++
		return -1
	}
	// Walk from head to find depth (number of distinct lines above it).
	depth := 0
	for cur := p.head; cur != nil && cur != n; cur = cur.next {
		depth++
	}
	p.remove(n)
	p.pushFront(n)
	d := depth
	if d > p.capDist {
		d = p.capDist
	}
	p.hist[d]++
	p.sumDist += float64(depth)
	p.finite++
	return depth
}

// Reset empties the profiler for a new stream and keeps its storage:
// the index, the list nodes and the histogram are reused, not
// reallocated.
func (p *Profiler) Reset() {
	clear(p.index)
	if p.head != nil {
		p.tail.next = p.free
		p.free = p.head
	}
	p.head, p.tail, p.size = nil, nil, 0
	clear(p.hist)
	p.ColdMisses, p.Accesses, p.sumDist, p.finite = 0, 0, 0, 0
}

func (p *Profiler) pushFront(n *node) {
	n.prev = nil
	n.next = p.head
	if p.head != nil {
		p.head.prev = n
	}
	p.head = n
	if p.tail == nil {
		p.tail = n
	}
}

func (p *Profiler) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		p.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		p.tail = n.prev
	}
}

// Distinct returns the number of distinct lines seen.
func (p *Profiler) Distinct() int { return p.size }

// MeanDistance returns the mean finite stack distance — the "R" a
// workload reports in the Fig. 4 analysis — or 0 if no line was reused.
func (p *Profiler) MeanDistance() float64 {
	if p.finite == 0 {
		return 0
	}
	return p.sumDist / float64(p.finite)
}

// Histogram returns a copy of the distance histogram; bucket i counts
// accesses with stack distance i, and the final bucket also absorbs all
// larger distances.
func (p *Profiler) Histogram() []int64 {
	return append([]int64(nil), p.hist...)
}

// HitRateAtCapacity returns the fraction of accesses that would hit in
// a fully-associative LRU cache holding lines lines — the classic use
// of a reuse-distance profile. Cold misses count as misses.
func (p *Profiler) HitRateAtCapacity(lines int) float64 {
	if p.Accesses == 0 {
		return 0
	}
	if lines > p.capDist {
		lines = p.capDist
	}
	var hits int64
	for d := 0; d < lines && d < len(p.hist); d++ {
		hits += p.hist[d]
	}
	return float64(hits) / float64(p.Accesses)
}
