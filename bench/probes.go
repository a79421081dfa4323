package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// The raw-frame probes talk to transport.Switch over a plain UDP socket
// with frames pre-encoded by wire.BatchWriter — no client library — on an
// idle probe rack (64 switch-resident locks, 128 slots each, the same chain
// length as the workload). They give the switch node's service time and its
// throughput ceiling; what the client library adds is the difference to the
// workload's own figures.

const (
	probeLocks    = 64
	probeSlots    = 128
	probeInflight = 128
)

type probeResult struct {
	frame1us, frame41us float64 // median round trip of a 1-op / 41-op frame
	rawMops             float64
}

type prober struct {
	conn *net.UDPConn
	head netip.AddrPort
	self netip.AddrPort
	rbuf []byte
	wbuf []byte
	bw   wire.BatchWriter
	br   wire.BatchReader
	txn  uint64
	src  *opStream
}

func probeRack(chain int) (*ctrlplane.Topology, error) {
	locks := make([]ctrlplane.SwitchLock, probeLocks)
	for i := range locks {
		locks[i] = ctrlplane.SwitchLock{ID: uint32(1 + i), Slots: probeSlots}
	}
	return ctrlplane.New(ctrlplane.Config{
		Switches:    chain,
		DataPlane:   switchdp.Config{MaxLocks: 128, TotalSlots: probeSlots * (probeLocks + 1), Priorities: 1},
		SwitchLocks: locks,
	})
}

// runProbes measures a fresh probe rack of the given chain length. rtts is
// the number of timed round trips per frame size.
func runProbes(chain int, src *opStream, rtts int, rawDur time.Duration) (probeResult, error) {
	var res probeResult
	tp, err := probeRack(chain)
	if err != nil {
		return res, err
	}
	defer tp.Close()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, err
	}
	defer conn.Close()
	head, err := netip.ParseAddrPort(tp.Head().Addr())
	if err != nil {
		return res, err
	}
	p := &prober{
		conn: conn, head: head, self: conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		rbuf: make([]byte, 2048), wbuf: make([]byte, 0, wire.MaxDatagram), src: src,
	}
	if res.frame1us, err = p.rtt(1, rtts); err != nil {
		return res, fmt.Errorf("1-op frame probe: %w", err)
	}
	if res.frame41us, err = p.rtt(wire.MaxBatchOps, rtts); err != nil {
		return res, fmt.Errorf("%d-op frame probe: %w", wire.MaxBatchOps, err)
	}
	if res.rawMops, err = p.ceiling(rawDur); err != nil {
		return res, fmt.Errorf("raw throughput probe: %w", err)
	}
	return res, nil
}

func (p *prober) hdr(op wire.Op, lock uint32, txn uint64) wire.Header {
	return wire.Header{Op: op, Mode: wire.Shared, LockID: lock, TxnID: txn,
		ClientIP: p.self.Addr(), ClientPort: p.self.Port()}
}

func (p *prober) send() error {
	frame := p.bw.Frame()
	if frame == nil {
		return nil
	}
	_, err := p.conn.WriteToUDPAddrPort(frame, p.head)
	p.bw.Reset(p.wbuf[:0])
	return err
}

// recv reads one datagram and calls fn for every op in it.
func (p *prober) recv(fn func(h *wire.Header)) error {
	if err := p.conn.SetReadDeadline(time.Now().Add(opDeadline)); err != nil {
		return err
	}
	n, _, err := p.conn.ReadFromUDPAddrPort(p.rbuf)
	if err != nil {
		return err
	}
	data := p.rbuf[:n]
	var h wire.Header
	if !wire.IsBatch(data) {
		if err := h.DecodeFromBytes(data); err != nil {
			return err
		}
		fn(&h)
		return nil
	}
	if err := p.br.Reset(data); err != nil {
		return err
	}
	for {
		ok, err := p.br.Next(&h)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		fn(&h)
	}
}

// await reads until want ops of kind op have arrived.
func (p *prober) await(op wire.Op, want int) error {
	got := 0
	for got < want {
		if err := p.recv(func(h *wire.Header) {
			if h.Op == op {
				got++
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// rtt times n round trips of one pre-encoded frame of ops shared acquires:
// write the frame, read until every grant is back. The matching releases
// are sent and acked outside the timed interval, so the rack is idle again
// before the next trip.
func (p *prober) rtt(ops, n int) (float64, error) {
	locks := make([]uint32, ops)
	rtts := make([]float64, 0, n)
	p.bw.Reset(p.wbuf[:0])
	for i := 0; i < n; i++ {
		first := p.txn + 1
		for k := range locks {
			locks[k] = 1 + p.src.next().id%probeLocks
			p.txn++
			h := p.hdr(wire.OpAcquire, locks[k], p.txn)
			p.bw.Append(&h)
		}
		frame := p.bw.Frame()
		t0 := now()
		if _, err := p.conn.WriteToUDPAddrPort(frame, p.head); err != nil {
			return 0, err
		}
		if err := p.await(wire.OpGrant, ops); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(now()-t0)/1e3)
		p.bw.Reset(p.wbuf[:0])
		for k := range locks {
			h := p.hdr(wire.OpRelease, locks[k], first+uint64(k))
			p.bw.Append(&h)
		}
		if err := p.send(); err != nil {
			return 0, err
		}
		if err := p.await(wire.OpReleaseAck, ops); err != nil {
			return 0, err
		}
	}
	return median(rtts), nil
}

// ceiling keeps probeInflight acquires in flight from one goroutine for d:
// every frame it writes carries the releases of the grants just read plus
// as many new acquires as the window allows. A completed op is an acquire
// granted and its release acked, as in the workloads.
func (p *prober) ceiling(d time.Duration) (float64, error) {
	type heldGrant struct {
		lock uint32
		txn  uint64
	}
	var toRelease []heldGrant
	waiting, acked, unacked := 0, 0, 0
	p.bw.Reset(p.wbuf[:0])
	add := func(h wire.Header) error {
		if !p.bw.Append(&h) {
			if err := p.send(); err != nil {
				return err
			}
			p.bw.Append(&h)
		}
		return nil
	}
	start := time.Now()
	stopping := false
	for {
		if !stopping && time.Since(start) >= d {
			stopping = true
		}
		for _, g := range toRelease {
			if err := add(p.hdr(wire.OpRelease, g.lock, g.txn)); err != nil {
				return 0, err
			}
			unacked++
		}
		toRelease = toRelease[:0]
		for !stopping && waiting+unacked < probeInflight {
			p.txn++
			if err := add(p.hdr(wire.OpAcquire, 1+p.src.next().id%probeLocks, p.txn)); err != nil {
				return 0, err
			}
			waiting++
		}
		if err := p.send(); err != nil {
			return 0, err
		}
		if waiting+unacked == 0 {
			break
		}
		if err := p.recv(func(h *wire.Header) {
			switch h.Op {
			case wire.OpGrant:
				waiting--
				toRelease = append(toRelease, heldGrant{h.LockID, h.TxnID})
			case wire.OpReleaseAck:
				unacked--
				acked++
			}
		}); err != nil {
			return 0, err
		}
	}
	return float64(acked) / time.Since(start).Seconds() / 1e6, nil
}
