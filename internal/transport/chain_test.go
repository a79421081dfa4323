package transport

import (
	"context"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Protocol-level chain replication tests: racks are wired by hand with
// ChainConfigure (the role ctrlplane.Topology automates) and probed with
// raw UDP sockets so individual frames — chain envelopes included — can be
// forged, duplicated, and reordered. End-to-end failover under a real
// Client runs in internal/ctrlplane and internal/scenario.

// chainRack starts nsw switches and one lock server on loopback and wires
// the switches into a chain (switch 0 head, switch nsw-1 tail, epoch 1).
func chainRack(t *testing.T, nsw int, dp switchdp.Config) ([]*Switch, *Server) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	var sws []*Switch
	var addrs []string
	for i := 0; i < nsw; i++ {
		sw, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", DataPlane: dp, Servers: []string{srv.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sw.Close() })
		sws = append(sws, sw)
		addrs = append(addrs, sw.Addr())
	}
	for i, sw := range sws {
		r := ChainRole{Epoch: 1, Head: i == 0, Tail: i == nsw-1}
		if i+1 < nsw {
			r.Succ = addrs[i+1]
		}
		if i > 0 {
			r.HeadAddr = addrs[0]
		}
		for j, a := range addrs {
			if j != i {
				r.Peers = append(r.Peers, a)
			}
		}
		if err := sw.ChainConfigure(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.SetSwitchAddr(addrs[0]); err != nil {
		t.Fatal(err)
	}
	return sws, srv
}

// probe is a raw UDP endpoint standing in for a client, sending hand-built
// headers and collecting whatever the rack emits.
type probe struct {
	t    *testing.T
	conn *net.UDPConn
}

func newProbe(t *testing.T) *probe {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &probe{t: t, conn: conn}
}

// send writes h as one bare header, the switch's external ingress format.
func (p *probe) send(h *wire.Header, to string) {
	p.t.Helper()
	p.write(h.AppendTo(nil), to)
}

// sendFrame writes h as a one-op batch frame, the format nodes send each
// other.
func (p *probe) sendFrame(h *wire.Header, to string) {
	p.t.Helper()
	var w wire.BatchWriter
	w.Reset(nil)
	w.Append(h)
	p.write(w.Frame(), to)
}

func (p *probe) write(b []byte, to string) {
	p.t.Helper()
	ap, err := resolveAddrPort(to)
	if err != nil {
		p.t.Fatal(err)
	}
	if _, err := p.conn.WriteToUDPAddrPort(b, ap); err != nil {
		p.t.Fatal(err)
	}
}

// recv waits for the next header matching want, skipping others (epoch
// announcements, duplicate grants from the resend sweep).
func (p *probe) recv(want wire.Op, d time.Duration) (wire.Header, bool) {
	p.t.Helper()
	deadline := time.Now().Add(d)
	buf := make([]byte, 2048)
	for time.Now().Before(deadline) {
		p.conn.SetReadDeadline(deadline)
		n, _, err := p.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return wire.Header{}, false
		}
		for _, h := range decodeAll(buf[:n]) {
			if h.Op == want {
				return h, true
			}
		}
	}
	return wire.Header{}, false
}

// decodeAll splits a datagram into headers, unwrapping batch frames.
func decodeAll(data []byte) []wire.Header {
	var out []wire.Header
	if wire.IsBatch(data) {
		var r wire.BatchReader
		if r.Reset(data) != nil {
			return out
		}
		var h wire.Header
		for {
			ok, err := r.Next(&h)
			if err != nil || !ok {
				return out
			}
			out = append(out, h)
		}
	}
	var h wire.Header
	if h.DecodeFromBytes(data) == nil {
		out = append(out, h)
	}
	return out
}

func waitStatus(t *testing.T, sw *Switch, d time.Duration, cond func(ChainInfo) bool) ChainInfo {
	t.Helper()
	deadline := time.Now().Add(d)
	var ci ChainInfo
	for time.Now().Before(deadline) {
		ci = sw.ChainStatus()
		if cond(ci) {
			return ci
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("chain status condition not reached; last %+v", ci)
	return ci
}

// TestChainReplicatedAcquireRelease drives a full server-path acquire and
// release through a 3-member chain and checks that every member applied
// the identical op stream and that the head's replay log drains.
func TestChainReplicatedAcquireRelease(t *testing.T) {
	sws, _ := chainRack(t, 3, dpConfig())
	p := newProbe(t)

	p.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 1, TxnID: 7}, sws[0].Addr())
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("no grant through 3-member chain")
	}
	p.send(&wire.Header{Op: wire.OpRelease, LockID: 1, TxnID: 7}, sws[0].Addr())
	if _, ok := p.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("no release ack through 3-member chain")
	}

	// All members converge to the same applied prefix and the tail's acks
	// drain every replay log.
	head := waitStatus(t, sws[0], timeout, func(ci ChainInfo) bool { return ci.LogLen == 0 })
	for i, sw := range sws[1:] {
		ci := waitStatus(t, sw, timeout, func(ci ChainInfo) bool {
			return ci.Applied == head.Applied && ci.LogLen == 0
		})
		if ci.Epoch != head.Epoch {
			t.Fatalf("member %d epoch %d, head %d", i+1, ci.Epoch, head.Epoch)
		}
	}
	if head.Applied < 4 {
		// acquire, grant, release, release-ack at minimum.
		t.Fatalf("head applied only %d ops", head.Applied)
	}
}

// TestChainGrantSurvivesPromotion: a grant delivered through a 2-member
// chain stays answerable — and releasable — from the surviving member
// after the head fails, because the dedup tables replicated with it.
func TestChainGrantSurvivesPromotion(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	p := newProbe(t)

	acq := wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 3, TxnID: 9}
	p.send(&acq, sws[0].Addr())
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("no grant")
	}

	// Head dies; the controller would now promote the tail. The promotion
	// must announce the new epoch to the holder found in the grant cache.
	sws[0].Close()
	if err := sws[1].ChainConfigure(ChainRole{Epoch: 2, Head: true, Tail: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetSwitchAddr(sws[1].Addr()); err != nil {
		t.Fatal(err)
	}
	ann, ok := p.recv(wire.OpEpoch, timeout)
	if !ok {
		t.Fatal("promotion did not announce the new epoch to the grant holder")
	}
	if ann.TxnID != 2 {
		t.Fatalf("epoch announcement carries epoch %d, want 2", ann.TxnID)
	}
	head := netip.AddrPortFrom(ann.ClientIP, ann.ClientPort).String()
	if want := sws[1].Addr(); head != want {
		t.Fatalf("epoch announcement names head %s, want %s", head, want)
	}

	// A retransmitted acquire is answered from the replicated grant cache —
	// not double-granted through the data plane.
	p.send(&acq, sws[1].Addr())
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("retransmit not answered from replicated grant cache")
	}
	if g := sws[1].Snapshot().Stats.GrantsImmediate + sws[1].Snapshot().Stats.GrantsQueued; g != 0 {
		t.Fatalf("replica's data plane granted %d times; lock is server-resident", g)
	}

	// The release must complete against the new head.
	p.send(&wire.Header{Op: wire.OpRelease, LockID: 3, TxnID: 9}, sws[1].Addr())
	if _, ok := p.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("release not acked by promoted head")
	}
}

// TestChainRelayToHead: external ingress landing on a non-head member is
// relayed to the head (and the client redirected), so requests sent to a
// stale address during reconfiguration still complete.
func TestChainRelayToHead(t *testing.T) {
	sws, _ := chainRack(t, 2, dpConfig())
	p := newProbe(t)

	p.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 4, TxnID: 11}, sws[1].Addr())
	ann, ok := p.recv(wire.OpEpoch, timeout)
	if !ok {
		t.Fatal("non-head member did not redirect the client")
	}
	if got := netip.AddrPortFrom(ann.ClientIP, ann.ClientPort).String(); got != sws[0].Addr() {
		t.Fatalf("redirect names %s, want head %s", got, sws[0].Addr())
	}
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("relayed acquire was not granted")
	}
}

// TestBareHeaderIngress pins the asymmetric ingress contract. The switch
// serves a datagram holding one bare wire.Header, the paper's
// one-request-per-packet format; every probe test in this file sends it
// that way. Clients and lock servers hear only from switches, which send
// batch frames, so they drop a bare header unread: no grant, no state
// change. Each case follows the bare header with a framed op from the
// same socket; loopback delivers the two in order, so once the framed op
// has taken effect the bare one has been read.
func TestBareHeaderIngress(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"client drops", func(t *testing.T) {
			// The probe stands in for the client's switch: it reads the
			// client's acquires and forges every datagram the client gets.
			p := newProbe(t)
			c, err := NewClientConfig(ClientConfig{Switches: []string{p.conn.LocalAddr().String()}, RetryInterval: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			to := c.conn.LocalAddr().String()
			ctx := context.Background()
			var grants [2]wire.Header
			var handles [2]*AsyncAcquire
			for i := range grants {
				if handles[i], err = c.AcquireAsync(ctx, uint32(3+i), netlock.Exclusive); err != nil {
					t.Fatal(err)
				}
				h, ok := p.recv(wire.OpAcquire, timeout)
				if !ok {
					t.Fatalf("acquire %d never reached the probe", i)
				}
				grants[i] = h
				grants[i].Op = wire.OpGrant
			}
			p.send(&grants[0], to)
			p.sendFrame(&grants[1], to)
			wctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			if _, err := handles[1].Wait(wctx); err != nil {
				t.Fatalf("framed grant: %v", err)
			}
			c.mu.Lock()
			_, pending := c.acquires[handles[0].key.txn]
			n := len(c.acquires)
			c.mu.Unlock()
			if !pending || n != 1 {
				t.Fatalf("bare grant was decoded: acquire pending=%v, %d in flight", pending, n)
			}
		}},
		{"server drops", func(t *testing.T) {
			_, srv := chainRack(t, 1, dpConfig())
			p := newProbe(t)
			p.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 5, TxnID: 51}, srv.Addr())
			p.sendFrame(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 6, TxnID: 52}, srv.Addr())
			deadline := time.Now().Add(timeout)
			for {
				var bare, framed int
				var st lockserver.Stats
				srv.WithLockServer(func(ls *lockserver.Server) {
					bare, _ = ls.CtrlQueueDepth(5)
					framed, _ = ls.CtrlQueueDepth(6)
					st = ls.Stats()
				})
				if framed == 1 {
					if bare != 0 || st.Acquires != 1 {
						t.Fatalf("bare acquire was decoded: lock 5 depth %d, %d acquires processed", bare, st.Acquires)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatal("server never processed the framed acquire")
				}
				time.Sleep(time.Millisecond)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestClientFailoverAnnounced: a multi-address client holding a grant
// through a 2-member chain survives head failure — the promoted head's
// epoch announcement re-targets it, the OnFailover callback fires, and an
// acquire that was outstanding across the failure completes.
func TestClientFailoverAnnounced(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())

	var mu sync.Mutex
	var events []string
	c, err := NewClientConfig(ClientConfig{
		Switches:      []string{sws[0].Addr(), sws[1].Addr()},
		RetryInterval: 30 * time.Millisecond,
		OnFailover: func(epoch uint64, head string) {
			mu.Lock()
			events = append(events, head)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	g, err := acquire(c, 1, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}

	// Second acquire contends with g, so it is still queued at the lock
	// server when the head dies.
	a2, err := c.AcquireAsync(context.Background(), 1, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	sws[0].Close()
	if err := sws[1].ChainConfigure(ChainRole{Epoch: 2, Head: true, Tail: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetSwitchAddr(sws[1].Addr()); err != nil {
		t.Fatal(err)
	}

	// Releasing g through the new head unblocks the queued acquire.
	g.Release()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	g2, err := a2.Wait(ctx)
	if err != nil {
		t.Fatalf("acquire outstanding across head failure: %v", err)
	}
	if err := g2.ReleaseWait(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("OnFailover never fired")
	}
	if got := events[len(events)-1]; got != sws[1].Addr() {
		t.Fatalf("OnFailover named head %s, want %s", got, sws[1].Addr())
	}
}

// TestClientFailoverByRotation: with no grant on the table there is nobody
// for the promoted head to announce to; the client's silence-rotation
// backstop must find the new head on its own.
func TestClientFailoverByRotation(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	c, err := NewClientConfig(ClientConfig{
		Switches:      []string{sws[0].Addr(), sws[1].Addr()},
		RetryInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	sws[0].Close()
	if err := sws[1].ChainConfigure(ChainRole{Epoch: 2, Head: true, Tail: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetSwitchAddr(sws[1].Addr()); err != nil {
		t.Fatal(err)
	}

	g, err := acquire(c, 2, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatalf("acquire after silent head death: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := g.ReleaseWait(ctx); err != nil {
		t.Fatal(err)
	}
}

// rawChain sends a hand-built chain envelope to a switch.
func rawChain(t *testing.T, p *probe, m *wire.ChainMsg, to string) {
	t.Helper()
	ap, err := resolveAddrPort(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.conn.WriteToUDPAddrPort(m.AppendTo(nil), ap); err != nil {
		t.Fatal(err)
	}
}

// recvChain waits for the next chain record of the given kind.
func (p *probe) recvChain(kind wire.ChainKind, d time.Duration) (wire.ChainMsg, bool) {
	p.t.Helper()
	ms := p.collectChain(kind, 1, d)
	if len(ms) == 0 {
		return wire.ChainMsg{}, false
	}
	return ms[0], true
}

// collectChain gathers chain records of the given kind, unpacking
// multi-record datagrams, until it has n of them (n < 0: until d passes)
// or d passes.
func (p *probe) collectChain(kind wire.ChainKind, n int, d time.Duration) []wire.ChainMsg {
	p.t.Helper()
	var out []wire.ChainMsg
	deadline := time.Now().Add(d)
	buf := make([]byte, 2048)
	for len(out) != n && time.Now().Before(deadline) {
		p.conn.SetReadDeadline(deadline)
		k, _, err := p.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			break
		}
		for data := buf[:k]; len(data) >= wire.ChainHdrLen; {
			var m wire.ChainMsg
			if m.DecodeFromBytes(data) != nil {
				break
			}
			data = data[m.Len():]
			if m.Kind == kind && len(out) != n {
				out = append(out, m)
			}
		}
	}
	return out
}

// soloMember starts one switch configured as a mid-chain member whose
// predecessor and successor are both the probe, so the test controls the
// entire op stream and observes every forward.
func soloMember(t *testing.T, p *probe) *Switch {
	t.Helper()
	return probeMember(t, p, false, 0)
}

// probeMember starts one switch whose successor is the probe: a mid
// member whose predecessor is the probe too, or (head) the head of a
// 2-member chain whose tail is the probe. sweep is its sweep period (0:
// the default).
func probeMember(t *testing.T, p *probe, head bool, sweep time.Duration) *Switch {
	t.Helper()
	srv, err := NewServer(ServerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sw, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", DataPlane: dpConfig(),
		Servers: []string{srv.Addr()}, sweep: sweep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	pa := p.conn.LocalAddr().String()
	r := ChainRole{Epoch: 1, Head: head, Succ: pa, Peers: []string{pa}}
	if !head {
		r.HeadAddr = pa
	}
	if err := sw.ChainConfigure(r); err != nil {
		t.Fatal(err)
	}
	return sw
}

func chainOp(seq uint64, lock uint32, txn uint64) *wire.ChainMsg {
	return &wire.ChainMsg{Kind: wire.ChainOp, Origin: wire.OriginClient, Epoch: 1, Seq: seq,
		Hdr: wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lock, TxnID: txn}}
}

// TestChainEpochFencing: envelopes from another epoch are dropped without
// touching the applied prefix.
func TestChainEpochFencing(t *testing.T) {
	p := newProbe(t)
	sw := soloMember(t, p)

	m := chainOp(1, 1, 1)
	m.Epoch = 99
	rawChain(t, p, m, sw.Addr())
	time.Sleep(20 * time.Millisecond)
	if ci := sw.ChainStatus(); ci.Applied != 0 {
		t.Fatalf("fenced envelope applied: %+v", ci)
	}

	m.Epoch = 1
	rawChain(t, p, m, sw.Addr())
	waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.Applied == 1 })
}

// TestChainDupAndGap: a duplicate envelope is suppressed; an envelope
// arriving ahead of a gap is dropped with a nack carrying the receiver's
// applied prefix, and replaying the missing range heals the gap.
func TestChainDupAndGap(t *testing.T) {
	p := newProbe(t)
	sw := soloMember(t, p)

	rawChain(t, p, chainOp(1, 1, 1), sw.Addr())
	waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.Applied == 1 })

	// Duplicate: applied prefix must not advance.
	rawChain(t, p, chainOp(1, 1, 1), sw.Addr())
	time.Sleep(20 * time.Millisecond)
	if ci := sw.ChainStatus(); ci.Applied != 1 {
		t.Fatalf("duplicate advanced the applied prefix: %+v", ci)
	}

	// Gap: seq 3 before seq 2 nacks with Applied=1 and is not applied.
	rawChain(t, p, chainOp(3, 3, 3), sw.Addr())
	nack, ok := p.recvChain(wire.ChainNack, timeout)
	if !ok {
		t.Fatal("gap did not nack")
	}
	if nack.Seq != 1 {
		t.Fatalf("gap nack carries applied prefix %d, want 1", nack.Seq)
	}
	if ci := sw.ChainStatus(); ci.Applied != 1 || ci.GapDrops == 0 || ci.Nacks != 1 {
		t.Fatalf("gap handling: %+v", ci)
	}

	// Replay the missing range in order: both apply.
	rawChain(t, p, chainOp(2, 2, 2), sw.Addr())
	rawChain(t, p, chainOp(3, 3, 3), sw.Addr())
	waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.Applied == 3 })
}

// TestChainMidForwardsDownstream: a mid-chain member forwards each applied
// envelope to its successor unchanged.
func TestChainMidForwardsDownstream(t *testing.T) {
	p := newProbe(t)
	sw := soloMember(t, p)

	rawChain(t, p, chainOp(1, 5, 5), sw.Addr())
	m, ok := p.recvChain(wire.ChainOp, timeout)
	if !ok {
		t.Fatal("mid member did not forward downstream")
	}
	if m.Seq != 1 || m.Hdr.LockID != 5 || m.Hdr.TxnID != 5 {
		t.Fatalf("forwarded envelope mutated: %+v", m)
	}
	// The un-acked op stays in the replay log until the tail acks it.
	if ci := sw.ChainStatus(); ci.LogLen != 1 {
		t.Fatalf("want 1 logged op awaiting ack, got %+v", ci)
	}
	// Ack as the tail would: the log drains.
	ack := &wire.ChainMsg{Kind: wire.ChainAck, Epoch: 1, Seq: 1}
	rawChain(t, p, ack, sw.Addr())
	waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.LogLen == 0 })
}

// TestLateDuplicateAcquireDropped: a network-delayed duplicate of an
// acquire whose whole acquire/release cycle already completed must not
// re-enter the rack. By the time it arrives, the pending/granted dedup
// tables have forgotten the txn, so without the completion tombstones the
// duplicate reads as a brand-new request and enqueues a ghost holder that
// no client will ever release — wedging the lock for everyone behind it.
func TestLateDuplicateAcquireDropped(t *testing.T) {
	run := func(t *testing.T, sws []*Switch, lockID uint32) {
		t.Helper()
		head := sws[0].Addr()
		p := newProbe(t)
		acq := wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 21}
		p.send(&acq, head)
		if _, ok := p.recv(wire.OpGrant, timeout); !ok {
			t.Fatal("no grant for the original acquire")
		}
		p.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 21}, head)
		if _, ok := p.recv(wire.OpReleaseAck, timeout); !ok {
			t.Fatal("no release ack")
		}

		// The delayed duplicate lands after the cycle completed.
		p.send(&acq, head)
		time.Sleep(20 * time.Millisecond)

		// A different client must still get the lock promptly.
		p2 := newProbe(t)
		p2.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 22}, head)
		if _, ok := p2.recv(wire.OpGrant, 2*time.Second); !ok {
			t.Fatal("lock wedged behind the ghost holder left by the late duplicate")
		}
		// And the duplicate itself must not have produced a second grant.
		if h, ok := p.recv(wire.OpGrant, 200*time.Millisecond); ok {
			t.Fatalf("late duplicate was granted: %+v", h)
		}
	}
	t.Run("server-owned", func(t *testing.T) {
		sws, _ := chainRack(t, 2, dpConfig())
		run(t, sws, 5)
	})
	t.Run("switch-resident", func(t *testing.T) {
		sws, srv := chainRack(t, 1, dpConfig())
		if err := installSwitchLock(sws[0], []*Server{srv}, 6, []switchdp.Region{{Left: 0, Right: 8}}); err != nil {
			t.Fatal(err)
		}
		run(t, sws, 6)
	})
}

// chainBurst makes the member under test sequence or apply ops first..last
// and returns their forwards to the probe: as a mid member it gets them
// from the probe in one datagram; as a head it sequences one client
// acquire per op, each on its own server-owned lock.
func chainBurst(t *testing.T, p *probe, sw *Switch, head bool, first, last uint64) []wire.ChainMsg {
	t.Helper()
	var b []byte
	client := newProbe(t)
	for seq := first; seq <= last; seq++ {
		if head {
			client.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: uint32(seq), TxnID: seq}, sw.Addr())
		} else {
			b = chainOp(seq, uint32(seq), seq).AppendTo(b)
		}
	}
	if !head {
		p.write(b, sw.Addr())
	}
	n := int(last - first + 1)
	got := p.collectChain(wire.ChainOp, n, timeout)
	if len(got) != n {
		t.Fatalf("member forwarded %d of %d ops", len(got), n)
	}
	return got
}

// wantSeqs fails unless ms carries exactly the sequence numbers want, in
// order.
func wantSeqs(t *testing.T, what string, ms []wire.ChainMsg, want ...uint64) {
	t.Helper()
	got := make([]uint64, len(ms))
	for i := range ms {
		got[i] = ms[i].Seq
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: seqs %v, want %v", what, got, want)
	}
}

// eachSender runs f for the two members whose successor the probe can
// play: a mid member, and the head of a 2-member chain.
func eachSender(t *testing.T, f func(t *testing.T, head bool)) {
	t.Run("mid", func(t *testing.T) { f(t, false) })
	t.Run("head-of-2", func(t *testing.T) { f(t, true) })
}

// TestChainAckOnlyPrunes: an ack below the member's applied seq is the
// ordinary state of a pipelined chain (newer ops are still in flight to
// the tail); it prunes the log and re-sends nothing.
func TestChainAckOnlyPrunes(t *testing.T) {
	eachSender(t, func(t *testing.T, head bool) {
		p := newProbe(t)
		sw := probeMember(t, p, head, time.Hour) // no heal sweep
		chainBurst(t, p, sw, head, 1, 3)
		rawChain(t, p, &wire.ChainMsg{Kind: wire.ChainAck, Epoch: 1, Seq: 1}, sw.Addr())
		waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.LogLen == 2 })
		if again := p.collectChain(wire.ChainOp, -1, 100*time.Millisecond); len(again) != 0 {
			t.Fatalf("ack re-sent %d ops", len(again))
		}
		if ci := sw.ChainStatus(); ci.Replayed != 0 {
			t.Fatalf("ack counted a replay: %+v", ci)
		}
	})
}

// TestChainNackReplaysAbovePrefix: the successor's nack with applied
// prefix p re-sends exactly the logged ops p+1..seq, in order, and prunes
// nothing (p is not yet committed at the tail).
func TestChainNackReplaysAbovePrefix(t *testing.T) {
	eachSender(t, func(t *testing.T, head bool) {
		p := newProbe(t)
		sw := probeMember(t, p, head, time.Hour) // no heal sweep
		chainBurst(t, p, sw, head, 1, 5)
		rawChain(t, p, &wire.ChainMsg{Kind: wire.ChainNack, Epoch: 1, Seq: 2}, sw.Addr())
		wantSeqs(t, "replay", p.collectChain(wire.ChainOp, -1, 200*time.Millisecond), 3, 4, 5)
		if ci := sw.ChainStatus(); ci.Replayed != 3 || ci.LogLen != 5 {
			t.Fatalf("after nack: %+v", ci)
		}
	})
}

// TestChainHealsBurstTailLoss: ops lost at the end of a burst leave no
// later op to reveal the gap, so nobody nacks; the sweep re-sends the
// un-acked log once it has not moved for chainHealNs.
func TestChainHealsBurstTailLoss(t *testing.T) {
	eachSender(t, func(t *testing.T, head bool) {
		p := newProbe(t)
		sw := probeMember(t, p, head, 0)
		chainBurst(t, p, sw, head, 1, 2)
		rawChain(t, p, &wire.ChainMsg{Kind: wire.ChainAck, Epoch: 1, Seq: 2}, sw.Addr())
		waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.LogLen == 0 })

		// Ops 3 and 4 reach the probe, which drops them as lost.
		start := time.Now()
		chainBurst(t, p, sw, head, 3, 4)
		healed := p.collectChain(wire.ChainOp, 2, timeout)
		elapsed := time.Since(start)
		wantSeqs(t, "heal", healed, 3, 4)
		// A sweep that runs late stamps the log one sweep early.
		if min := time.Duration(chainHealNs) - 10*time.Millisecond; elapsed < min {
			t.Fatalf("healed after %v, before %v", elapsed, min)
		}
		rawChain(t, p, &wire.ChainMsg{Kind: wire.ChainAck, Epoch: 1, Seq: 4}, sw.Addr())
		ci := waitStatus(t, sw, timeout, func(ci ChainInfo) bool { return ci.LogLen == 0 })
		if ci.Nacks != 0 || ci.Replayed < 2 {
			t.Fatalf("heal counters: %+v", ci)
		}
	})
}

// TestGrantResendPacing: the tail re-sends an un-released grant once per
// grantResendNs, paced by sweep counts: over one second with the default
// 10 ms sweep that is 9 re-sends (every 11 sweeps). The bounds allow a
// loaded host to run late sweeps; more than one re-send per
// grantResendNs is a pacing bug.
func TestGrantResendPacing(t *testing.T) {
	sws, srv := chainRack(t, 1, dpConfig())
	if err := installSwitchLock(sws[0], []*Server{srv}, 6, []switchdp.Region{{Left: 0, Right: 8}}); err != nil {
		t.Fatal(err)
	}
	p := newProbe(t)
	p.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 6, TxnID: 61}, sws[0].Addr())
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("no grant")
	}
	resent := 0
	for end := time.Now().Add(time.Second); ; resent++ {
		if _, ok := p.recv(wire.OpGrant, time.Until(end)); !ok {
			break
		}
	}
	if resent < 6 || resent > int(time.Second/time.Duration(grantResendNs)) {
		t.Fatalf("%d grant re-sends in 1s, want 6..10", resent)
	}
}
