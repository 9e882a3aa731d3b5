package noc

import "poise/internal/snap"

// walk lists the crossbar's mutable state (port next-free cycles and
// statistics); latencies come from the configuration.
func (x *Crossbar) walk(k snap.Walk) {
	k.Fixed(len(x.reqPorts), "noc: snapshot has %d ports, crossbar has %d")
	for i := range x.reqPorts {
		k.Varint(&x.reqPorts[i])
		k.Varint(&x.respPorts[i])
	}
	k.Varint(&x.ReqFlits)
	k.Varint(&x.RespFlits)
	k.Varint(&x.QueueDelay)
}

// EncodeState serialises the crossbar.
func (x *Crossbar) EncodeState(w *snap.Writer) { x.walk(snap.Out(w)) }

// DecodeState restores state written by EncodeState onto a crossbar
// with the same port count.
func (x *Crossbar) DecodeState(r *snap.Reader) error { return snap.Restore(r, x.walk, nil) }
