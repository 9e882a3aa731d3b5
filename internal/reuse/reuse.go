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
	free  *node // nodes a Reset released, chained through next

	// ColdMisses counts first touches.
	ColdMisses int64
	Accesses   int64
	sumDist    float64
	finite     int64
}

type node struct {
	addr       uint64
	prev, next *node
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{index: make(map[uint64]*node)}
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
		return -1
	}
	// Walk from head to find depth (number of distinct lines above it).
	depth := 0
	for cur := p.head; cur != nil && cur != n; cur = cur.next {
		depth++
	}
	p.remove(n)
	p.pushFront(n)
	p.sumDist += float64(depth)
	p.finite++
	return depth
}

// Reset empties the profiler for a new stream and keeps its storage:
// the index and the list nodes are reused, not reallocated.
func (p *Profiler) Reset() {
	clear(p.index)
	if p.head != nil {
		p.tail.next = p.free
		p.free = p.head
	}
	p.head, p.tail = nil, nil
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

// MeanDistance returns the mean finite stack distance — the "R" a
// workload reports in the Fig. 4 analysis — or 0 if no line was reused.
func (p *Profiler) MeanDistance() float64 {
	if p.finite == 0 {
		return 0
	}
	return p.sumDist / float64(p.finite)
}
