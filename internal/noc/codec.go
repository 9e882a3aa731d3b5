package noc

import "poise/internal/snap"

// Walk lists the crossbar's mutable state (port next-free cycles and
// statistics); latencies come from the configuration. A walk in
// restores onto a crossbar with the same port count.
func (x *Crossbar) Walk(k snap.Walk) {
	k.Fixed(len(x.reqPorts), "noc: snapshot has %d ports, crossbar has %d")
	for i := range x.reqPorts {
		k.Varint(&x.reqPorts[i])
		k.Varint(&x.respPorts[i])
	}
	k.Varint(&x.ReqFlits)
	k.Varint(&x.RespFlits)
	k.Varint(&x.QueueDelay)
}
