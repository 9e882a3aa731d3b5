package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// yardstick is the benchmark's own reference work: a fixed instruction
// stream that no change to the product can move, run in slices of about
// a millisecond between the units of a pass. The box this benchmark is
// judged on is a few cores of a shared host, and what its neighbours do
// slows high-throughput code by 10-60 % for seconds to minutes at a
// time (README.md, "Noise"); the simulator and the yardstick slow down
// together, so host time divided by the yardstick's slowdown is steady
// where host time alone is not.
//
// A slice is three loops, chosen because their mean over a few seconds
// followed the simulator's through every machine state seen while this
// was written (a register-only loop of eight independent chains, a
// binary heap of timestamps popped and pushed, a pass of unpredictable
// branches over 64 KiB); loops that wait on one dependency chain or on
// memory did not. Every slice starts from the same state and so
// executes the same instructions.
//
// The reference work runs on as many goroutines as the work it follows
// (lanes): a unit that keeps both cores busy is slowed by the
// neighbours of both.
type yardstick struct {
	lanes []*yardLane
	owed  float64 // slices of reference work not yet run
}

// yardLane is one goroutine's share of the reference work: its own
// working set and what its slices took since the last take.
type yardLane struct {
	pristine [yardHeap]yardEvent
	heap     [yardHeap]yardEvent
	data     [yardData]uint32
	sink     uint64

	slices  int
	seconds float64
}

type yardEvent struct {
	t  int64
	id int64
}

const (
	yardHeap = 2048
	yardData = 16 << 10

	// About 40 %, 40 % and 20 % of a slice: with these shares the
	// slice's slowdown followed the simulator's one for one.
	yardALU    = 160_000 // iterations of the eight-chain loop per slice
	yardEvents = 4_800   // heap pop+push pairs per slice
	yardSweeps = 2       // passes over the branch data per slice

	// yardNominalS is what one slice takes on the reference box (2.1 GHz
	// Xeon, go1.24) when its neighbours are quiet. Calibrated seconds are
	// seconds of that machine in that state.
	yardNominalS = 0.95e-3
	// yardPerSecond is how many slices a lane runs per second of measured
	// work, a tenth of the time on a quiet box; whatever is timed gets at
	// least yardMinSlices slices a lane.
	yardPerSecond = 0.10 / yardNominalS
	yardMinSlices = 30
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newYardstick(lanes int) *yardstick {
	y := &yardstick{}
	for i := 0; i < lanes; i++ {
		y.lanes = append(y.lanes, newYardLane())
	}
	return y
}

func newYardLane() *yardLane {
	y := &yardLane{}
	r := uint64(0x9E3779B97F4A7C15)
	for i := range y.pristine {
		r = xorshift(r)
		y.pristine[i] = yardEvent{int64(r % 1000), int64(i)}
	}
	// Heapify once; every slice starts from this arrangement.
	y.heap = y.pristine
	for i := yardHeap/2 - 1; i >= 0; i-- {
		y.down(i, yardHeap)
	}
	y.pristine = y.heap
	for i := range y.data {
		r = xorshift(r)
		y.data[i] = uint32(r >> 20)
	}
	return y
}

func (y *yardLane) down(i, n int) {
	h := &y.heap
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && h[r].t < h[l].t {
			l = r
		}
		if h[i].t <= h[l].t {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// slice runs one slice of reference work.
func (y *yardLane) slice() {
	t0 := time.Now()

	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < yardALU; i++ {
		a = a*6364136223846793005 + 1
		b ^= b << 13
		b ^= b >> 7
		c = c*3 + uint64(i)
		d ^= d >> 9
		d += 77
		e = e*2862933555777941757 + 3
		f ^= f << 5
		f ^= f >> 11
		g = g*5 + 9
		h ^= h >> 3
		h += 1234567
	}
	acc := a + b + c + d + e + f + g + h

	// The event heap of a discrete-event loop: pop the earliest, push it
	// back a pseudo-random while later.
	y.heap = y.pristine
	r := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < yardEvents; i++ {
		r = xorshift(r)
		y.heap[0].t += int64(r%500) + 1
		y.down(0, yardHeap)
	}
	acc += uint64(y.heap[0].t)

	for s := 0; s < yardSweeps; s++ {
		for _, x := range y.data {
			if x&1 == 0 {
				acc += uint64(x)
			} else if x&2 == 0 {
				acc ^= uint64(x) << 1
			} else {
				acc -= 3
			}
		}
	}
	y.sink += acc

	y.slices++
	y.seconds += time.Since(t0).Seconds()
}

// run runs n slices a lane. The lanes work side by side and draw from
// one pool, as workers draw tasks: a lane on a core with a busy
// neighbour runs fewer of them, so the mean slice is slowed the way
// dynamically balanced work is (by the harmonic, not the arithmetic,
// mean of the cores' slowdowns).
func (y *yardstick) run(n int) {
	if len(y.lanes) == 1 {
		for i := 0; i < n; i++ {
			y.lanes[0].slice()
		}
		return
	}
	var pool atomic.Int64
	pool.Store(int64(n * len(y.lanes)))
	var wg sync.WaitGroup
	for _, l := range y.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pool.Add(-1) >= 0 {
				l.slice()
			}
		}()
	}
	wg.Wait()
}

// owe records that seconds of measured work just ran and runs the
// reference work that is due for it.
func (y *yardstick) owe(seconds float64) {
	y.owed += yardPerSecond * seconds
	n := int(y.owed)
	y.owed -= float64(n)
	y.run(n)
}

// atLeast tops the slices run since the last take up to n a lane.
func (y *yardstick) atLeast(n int) {
	done := 0
	for _, l := range y.lanes {
		done += l.slices
	}
	y.run(n - done/len(y.lanes))
}

// take returns the slowdown over the slices run since the last take —
// their mean duration as a multiple of the nominal one — and starts a
// new interval. It is 1 when no slice ran.
func (y *yardstick) take() float64 {
	var n int
	var seconds float64
	for _, l := range y.lanes {
		n += l.slices
		seconds += l.seconds
		l.slices, l.seconds = 0, 0
	}
	if n == 0 {
		return 1
	}
	return seconds / float64(n) / yardNominalS
}
