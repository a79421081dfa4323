package transport

import (
	"net/netip"

	"netlock/internal/obs"
	"netlock/internal/wire"
)

// egress accumulates outgoing ops into per-destination batch frames and
// writes each frame with one conn write. Flush policy belongs to the
// caller: the switch and server flush after every ingress datagram and
// control sweep, the client flushes adaptively (see client.go). egress is
// not goroutine-safe; each node serializes it under its own mutex.
type egress struct {
	conn  PacketConn
	o     *obs.Stripe
	dests map[netip.AddrPort]*destBatch
	free  []*destBatch
}

// destBatch is one destination's open frame. store keeps the frame's
// backing array across flushes so steady-state egress does not allocate.
type destBatch struct {
	ap    netip.AddrPort
	w     wire.BatchWriter
	store []byte
}

func newEgress(conn PacketConn, o *obs.Stripe) *egress {
	return &egress{
		conn:  conn,
		o:     o,
		dests: make(map[netip.AddrPort]*destBatch),
	}
}

// send queues h toward ap, flushing the destination's frame first if it is
// full. The op is not on the wire until the next flush.
func (e *egress) send(h *wire.Header, ap netip.AddrPort) {
	db := e.dests[ap]
	if db == nil {
		if n := len(e.free); n > 0 {
			db = e.free[n-1]
			e.free = e.free[:n-1]
		} else {
			db = &destBatch{}
		}
		db.ap = ap
		db.w.Reset(db.store)
		e.dests[ap] = db
	}
	if !db.w.Append(h) {
		e.flushDest(db)
		db.w.Append(h)
	}
}

// flushDest writes db's open frame, if any, and resets the writer. The
// destination stays registered.
func (e *egress) flushDest(db *destBatch) {
	n := db.w.Count()
	frame := db.w.Frame()
	if frame != nil {
		e.conn.WriteToUDPAddrPort(frame, db.ap)
		e.o.Inc(obs.CtrFramesOut)
		e.o.Observe(obs.StageEgressBatch, int64(n))
		db.store = frame[:0]
	}
	db.w.Reset(db.store)
}

// flushAll writes every destination's open frame and returns the
// destination slots to the free list.
func (e *egress) flushAll() {
	for ap, db := range e.dests {
		e.flushDest(db)
		delete(e.dests, ap)
		e.free = append(e.free, db)
	}
}
