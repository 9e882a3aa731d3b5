package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"poise/internal/snap"
)

// Workload-level preemption. A Drive run under an InterruptCtl that
// fires mid-kernel stops at a safe point and comes back as a Checkpoint —
// the GPU's mid-kernel state plus the workload aggregation so far. A
// Drive from that checkpoint restores it on a fresh-state GPU (anywhere:
// another process, another fleet worker) and finishes the run
// bit-identical to an uninterrupted one. A resumed run is itself
// preemptible, so a task can bounce across arbitrarily many workers.

const maxAggSnap = 1 << 24

// workloadAgg accumulates per-kernel results into a WorkloadResult,
// carrying the load-weighted AML numerator/denominator so aggregation
// can stop and resume without losing the weighting.
type workloadAgg struct {
	res    WorkloadResult
	amlSum float64
	amlW   int64
	// enc is encode's result, kept until add changes the aggregation:
	// a capture inside a kernel writes it without marshalling again.
	enc []byte
}

func newWorkloadAgg(w *Workload, p Policy) *workloadAgg {
	a := &workloadAgg{res: WorkloadResult{Workload: w.Name}}
	if p != nil {
		a.res.Policy = p.Name()
	}
	return a
}

func (a *workloadAgg) add(kr KernelResult) {
	a.enc = nil
	res := &a.res
	res.PerKernel = append(res.PerKernel, kr)
	res.Cycles += kr.Cycles
	res.Instructions += kr.Instructions
	res.L1 = res.L1.Add(kr.L1)
	res.DRAMAcc += kr.DRAMAcc
	res.L2Acc += kr.L2Accesses
	res.L2Hits += kr.L2Hits
	res.NoCReqFlits += kr.NoCReqFlits
	res.NoCRespFlits += kr.NoCRespFlits
	if kr.AML > 0 {
		weight := kr.L1.Accesses - kr.L1.Hits
		a.amlSum += kr.AML * float64(weight)
		a.amlW += weight
	}
}

// finish computes the derived ratios and returns the aggregate. It
// does not consume the agg: more kernels may be added and finish
// called again (the ratios are recomputed from scratch each time).
func (a *workloadAgg) finish() WorkloadResult {
	res := a.res
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if a.amlW > 0 {
		res.AML = a.amlSum / float64(a.amlW)
	}
	return res
}

// encode serialises the aggregation. The WorkloadResult travels as
// JSON — Go renders float64 in shortest round-trip form, so the
// decoded struct is bit-identical — and the AML numerator as raw
// float bits. The bytes are shared with later calls until the next add;
// nobody may modify them.
func (a *workloadAgg) encode() []byte {
	if a.enc != nil {
		return a.enc
	}
	js, err := json.Marshal(&a.res)
	if err != nil {
		// WorkloadResult is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("sim: marshal workload agg: %v", err))
	}
	w := snap.NewWriterSize(len(js) + 3*binary.MaxVarintLen64)
	w.Bytes(js)
	w.Float64(a.amlSum)
	w.Varint(a.amlW)
	a.enc = w.Data()
	return a.enc
}

func decodeWorkloadAgg(data []byte) (*workloadAgg, error) {
	r := snap.NewReader(data)
	js := r.LimitedView(maxAggSnap) // Unmarshal keeps no reference to it
	a := &workloadAgg{}
	if r.Err() == nil {
		if err := json.Unmarshal(js, &a.res); err != nil {
			return nil, fmt.Errorf("sim: workload agg: %w", err)
		}
	}
	a.amlSum = r.Float64()
	a.amlW = r.Varint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in workload agg", r.Len())
	}
	return a, nil
}

// Checkpoint is a preempted workload run: which kernel was in flight,
// the GPU + policy state at the interrupt point, and the results of
// the kernels already completed.
//
// A checkpoint that a run returns is written once: State and Agg are
// read-only views into the container it was sealed in, under the
// workload's name, and Encode under that name returns the container
// itself. State, Agg and those bytes share one buffer, so nobody may
// modify any of them; a caller that wants other bytes builds new
// slices, which Encode then writes into a new container.
type Checkpoint struct {
	Workload    string
	KernelIndex int
	Cycle       int64
	// State is the SnapshotKernel payload for the in-flight kernel.
	State []byte
	// Agg is the serialised aggregation over kernels 0..KernelIndex-1.
	Agg []byte

	// sealed is the container the checkpoint was written into, the
	// envelope and the section views it was sealed with; zero for a
	// decoded or hand-built checkpoint.
	sealed struct {
		data       []byte
		sn         snap.Snapshot
		state, agg []byte
	}
}

// container is the checkpoint's poisesnap envelope under the given
// content key, without the state.
func (c *Checkpoint) container(key string) *snap.Snapshot {
	return &snap.Snapshot{
		Kind:        snap.KindCheckpoint,
		Key:         key,
		Workload:    c.Workload,
		KernelIndex: c.KernelIndex,
		Cycle:       c.Cycle,
	}
}

// sections reports whether State and Agg are still the views the
// checkpoint was sealed with: same first byte, same length.
func (c *Checkpoint) sections() bool {
	s := &c.sealed
	return s.data != nil && sameView(c.State, s.state) && sameView(c.Agg, s.agg)
}

func sameView(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Snapshot packs the checkpoint into a poisesnap container under the
// given content key (for snap.Store.Save).
func (c *Checkpoint) Snapshot(key string) *snap.Snapshot {
	w := snap.NewWriterSize(len(c.Agg) + len(c.State) + 2*binary.MaxVarintLen64)
	w.Bytes(c.Agg)
	w.Bytes(c.State)
	sn := c.container(key)
	sn.State = w.Data()
	return sn
}

// Encode serialises the checkpoint container to bytes. While the key,
// Workload, KernelIndex and Cycle are what the checkpoint was sealed
// with and State and Agg the sealed views, that is the sealed container
// itself, shared and not to be modified; otherwise the two sections are
// copied once, into a new container.
func (c *Checkpoint) Encode(key string) ([]byte, error) {
	if sn := &c.sealed.sn; c.sections() && key == sn.Key && c.Workload == sn.Workload &&
		c.KernelIndex == sn.KernelIndex && c.Cycle == sn.Cycle {
		return c.sealed.data, nil
	}
	return c.container(key).EncodeSections(c.Agg, c.State)
}

// checkpointFromSnapshot unpacks a KindCheckpoint container. The
// checkpoint's State and Agg are views of sn.State, so the caller must
// not modify sn.State while it uses the checkpoint.
func checkpointFromSnapshot(sn *snap.Snapshot) (*Checkpoint, error) {
	if sn.Kind != snap.KindCheckpoint {
		return nil, fmt.Errorf("sim: snapshot kind %v is not a workload checkpoint", sn.Kind)
	}
	r := snap.NewReader(sn.State)
	agg := r.LimitedView(maxAggSnap)
	state := r.LimitedView(1 << 30)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes in checkpoint", r.Len())
	}
	return &Checkpoint{
		Workload:    sn.Workload,
		KernelIndex: sn.KernelIndex,
		Cycle:       sn.Cycle,
		State:       state,
		Agg:         agg,
	}, nil
}

// DecodeCheckpoint parses an encoded checkpoint container. Nothing is
// copied: the checkpoint's State and Agg are views of data, checked
// against its CRC as it stood (see snap.Decode), so data stays
// unchanged until the checkpoint has been resumed or dropped.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	sn, err := snap.Decode(data)
	if err != nil {
		return nil, err
	}
	return checkpointFromSnapshot(sn)
}

// checkpoint captures the interrupted kernel + aggregation state. The
// GPU and policy state is walked once, behind room for the container's
// front, which is then sealed around it under the workload's name.
func (g *GPU) checkpoint(w *Workload, p Policy, agg *workloadAgg) (*Checkpoint, error) {
	sn := snap.Snapshot{Kind: snap.KindCheckpoint, Key: w.Name, Workload: w.Name, KernelIndex: len(agg.res.PerKernel), Cycle: g.now}
	aggData := agg.encode()
	room := sn.Headroom(aggData)
	buf, err := g.writeKernel(p, room)
	if err != nil {
		return nil, err
	}
	data, state, err := sn.SealBehind(buf, room, aggData)
	if err != nil {
		return nil, err
	}
	sn.State = state
	cp, err := checkpointFromSnapshot(&sn)
	if err != nil {
		return nil, err
	}
	cp.sealed.data, cp.sealed.sn, cp.sealed.state, cp.sealed.agg = data, sn, cp.State, cp.Agg
	return cp, nil
}
