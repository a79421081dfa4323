package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"netlock/internal/sharedqueue"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// manualConn is a PacketConn for driving a Switch by hand: reads block until
// Close, and writes are decoded and kept (or dropped, when discard is set)
// instead of leaving the process. With the read loop parked and the sweep
// on an hour-long ticker, the caller's direct headIngress calls are the
// switch's only input, so every run is deterministic.
type manualConn struct {
	discard bool
	closed  chan struct{}
	once    sync.Once
	sent    []sentOp
}

// sentOp is one op the switch wrote, with its destination.
type sentOp struct {
	op   wire.Op
	lock uint32
	txn  uint64
	to   netip.AddrPort
}

func (s sentOp) String() string { return fmt.Sprintf("%v(%d,%d)->%v", s.op, s.lock, s.txn, s.to) }

func (c *manualConn) ReadFromUDPAddrPort([]byte) (int, netip.AddrPort, error) {
	<-c.closed
	return 0, netip.AddrPort{}, net.ErrClosed
}

func (c *manualConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	if c.discard {
		return len(b), nil
	}
	var br wire.BatchReader
	if !wire.IsBatch(b) || br.Reset(b) != nil {
		panic("manualConn: switch wrote a non-batch datagram")
	}
	var h wire.Header
	for {
		ok, err := br.Next(&h)
		if err != nil {
			panic(err)
		}
		if !ok {
			return len(b), nil
		}
		c.sent = append(c.sent, sentOp{h.Op, h.LockID, h.TxnID, to})
	}
}

func (c *manualConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *manualConn) LocalAddr() net.Addr {
	return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000}
}

// take returns and clears the recorded sends.
func (c *manualConn) take() []sentOp {
	out := c.sent
	c.sent = nil
	return out
}

type manualNet struct{ conn *manualConn }

func (n manualNet) Listen(string) (PacketConn, error) { return n.conn, nil }

var (
	manualServer  = netip.MustParseAddrPort("127.0.0.1:7001")
	manualClient  = netip.MustParseAddrPort("10.0.0.1:5000")
	manualClient2 = netip.MustParseAddrPort("10.0.0.2:5000")
)

const (
	manualServerLock   = 5 // owned by the lock server
	manualResidentLock = 6 // switch-resident, one exclusive bank of 8 slots
)

// manualSwitch builds a single-member switch over a manualConn, with one
// switch-resident lock installed.
func manualSwitch(t testing.TB, discard bool) (*Switch, *manualConn) {
	t.Helper()
	conn := &manualConn{discard: discard, closed: make(chan struct{})}
	dp := dpConfig()
	dp.Now = func() int64 { return 0 }
	sw, err := NewSwitch(SwitchConfig{
		Listen:    "manual",
		DataPlane: dp,
		Servers:   []string{manualServer.String()},
		Net:       manualNet{conn},
		sweep:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	sw.WithDataPlane(func(d *switchdp.Switch) {
		err = d.CtrlInstallLock(manualResidentLock, []switchdp.Region{{Left: 0, Right: 8}})
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw, conn
}

// ingress runs one op through the head's ingress stage the way the read
// loop runs one datagram: under the switch mutex, then a flush.
func ingress(s *Switch, origin wire.ChainOrigin, h wire.Header, from netip.AddrPort) {
	s.mu.Lock()
	s.headIngress(origin, &h, from)
	s.eg.flushAll()
	s.flushChain()
	s.mu.Unlock()
}

func clientOp(op wire.Op, lock uint32, txn uint64) wire.Header {
	return wire.Header{Op: op, Mode: wire.Exclusive, LockID: lock, TxnID: txn}
}

// The lifecycle stimuli, as the switch sees them.
func acquireRetransmit(s *Switch, lock uint32, txn uint64, from netip.AddrPort) {
	ingress(s, wire.OriginClient, clientOp(wire.OpAcquire, lock, txn), from)
}

func releaseRetransmit(s *Switch, lock uint32, txn uint64, from netip.AddrPort) {
	ingress(s, wire.OriginClient, clientOp(wire.OpRelease, lock, txn), from)
}

func serverReleaseAck(s *Switch, lock uint32, txn uint64) {
	ingress(s, wire.OriginServer, clientOp(wire.OpReleaseAck, lock, txn), manualServer)
}

func serverGrant(s *Switch, lock uint32, txn uint64) {
	ingress(s, wire.OriginServer, clientOp(wire.OpGrant, lock, txn), manualServer)
}

// leaseRelease is the release the head's lease sweep sequences for an
// expired hold.
func leaseRelease(s *Switch, lock uint32, txn uint64) {
	s.mu.Lock()
	h := clientOp(wire.OpRelease, lock, txn)
	s.sequence(wire.OriginCtrl, &h)
	s.eg.flushAll()
	s.mu.Unlock()
}

// wantSent checks the sends since the last check. Frames to different
// destinations may leave in any order, so the comparison ignores order.
func wantSent(t *testing.T, conn *manualConn, want ...sentOp) {
	t.Helper()
	got := conn.take()
	key := func(ops []sentOp) string {
		s := make([]string, len(ops))
		for i, o := range ops {
			s[i] = o.String()
		}
		sort.Strings(s)
		return strings.Join(s, " ")
	}
	if key(got) != key(want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}

// wantTables checks the switch's per-op table counts.
func wantTables(t *testing.T, s *Switch, pending, tracked, releasing int) {
	t.Helper()
	snap := s.Snapshot()
	if snap.PendingAcquires != pending || snap.TrackedGrants != tracked || snap.PendingReleases != releasing {
		t.Fatalf("tables: pending %d, tracked grants %d, pending releases %d; want %d, %d, %d",
			snap.PendingAcquires, snap.TrackedGrants, snap.PendingReleases, pending, tracked, releasing)
	}
}

func toServer(op wire.Op, lock uint32, txn uint64) sentOp {
	return sentOp{op, lock, txn, manualServer}
}

func toClient(op wire.Op, lock uint32, txn uint64, c netip.AddrPort) sentOp {
	return sentOp{op, lock, txn, c}
}

// TestSwitchOpLifecycle pins what the switch's per-(lock, txn) dedup state
// does with each kind of duplicate or late message in each phase of an
// op's life: pending (acquire forwarded, no grant yet), granted (grant
// delivered, cached), releasing (release forwarded to the lock server, not
// yet acked) and done (tombstoned). The lock is server-owned so every phase
// is reachable; a switch-resident pending acquire is covered separately.
func TestSwitchOpLifecycle(t *testing.T) {
	const L, K = manualServerLock, 100
	phases := []struct {
		name  string
		setup func(*Switch)
		// tables after setup: pending, tracked grants, pending releases
		tables [3]int
	}{
		{"pending", func(s *Switch) {
			acquireRetransmit(s, L, K, manualClient)
		}, [3]int{1, 0, 0}},
		{"granted", func(s *Switch) {
			acquireRetransmit(s, L, K, manualClient)
			serverGrant(s, L, K)
		}, [3]int{0, 1, 0}},
		{"releasing", func(s *Switch) {
			acquireRetransmit(s, L, K, manualClient)
			serverGrant(s, L, K)
			releaseRetransmit(s, L, K, manualClient)
		}, [3]int{0, 1, 1}},
		{"done", func(s *Switch) {
			acquireRetransmit(s, L, K, manualClient)
			serverGrant(s, L, K)
			releaseRetransmit(s, L, K, manualClient)
			serverReleaseAck(s, L, K)
		}, [3]int{0, 0, 0}},
	}
	type stimulus struct {
		name string
		// check applies the stimulus to a switch whose key is in phase
		// and asserts the sends and the tables that follow.
		check func(t *testing.T, s *Switch, conn *manualConn)
	}
	cases := map[string][]stimulus{
		"pending": {
			{"acquire-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				// Server-owned: re-forwarded end to end, return address
				// refreshed for the grant.
				acquireRetransmit(s, L, K, manualClient2)
				wantSent(t, conn, toServer(wire.OpAcquire, L, K))
				wantTables(t, s, 1, 0, 0)
				serverGrant(s, L, K)
				wantSent(t, conn, toClient(wire.OpGrant, L, K, manualClient2))
			}},
			{"release-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				// No grant cached: acked idempotently, data plane untouched.
				releaseRetransmit(s, L, K, manualClient)
				wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient))
				wantTables(t, s, 1, 0, 0)
			}},
			{"release-ack", func(t *testing.T, s *Switch, conn *manualConn) {
				serverReleaseAck(s, L, K)
				wantSent(t, conn)
				wantTables(t, s, 1, 0, 0)
			}},
			{"lease-release", func(t *testing.T, s *Switch, conn *manualConn) {
				// The release reaches the data plane; the acquire stays
				// pending and its grant is still delivered.
				leaseRelease(s, L, K)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 1, 0, 0)
				serverGrant(s, L, K)
				wantSent(t, conn, toClient(wire.OpGrant, L, K, manualClient))
				wantTables(t, s, 0, 1, 0)
			}},
		},
		"granted": {
			{"acquire-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				// Answered from the grant cache, to the refreshed address.
				acquireRetransmit(s, L, K, manualClient2)
				wantSent(t, conn, toClient(wire.OpGrant, L, K, manualClient2))
				wantTables(t, s, 0, 1, 0)
			}},
			{"release-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				releaseRetransmit(s, L, K, manualClient)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 0, 1, 1)
			}},
			{"release-ack", func(t *testing.T, s *Switch, conn *manualConn) {
				serverReleaseAck(s, L, K)
				wantSent(t, conn)
				wantTables(t, s, 0, 1, 0)
			}},
			{"lease-release", func(t *testing.T, s *Switch, conn *manualConn) {
				// The hold is reclaimed and tombstoned: a late acquire is
				// dropped and a late release acks without the data plane.
				leaseRelease(s, L, K)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 0, 0, 0)
				acquireRetransmit(s, L, K, manualClient)
				wantSent(t, conn)
				releaseRetransmit(s, L, K, manualClient)
				wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient))
			}},
		},
		"releasing": {
			{"acquire-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				// Still a held grant: answered from the cache.
				acquireRetransmit(s, L, K, manualClient)
				wantSent(t, conn, toClient(wire.OpGrant, L, K, manualClient))
				wantTables(t, s, 0, 1, 1)
			}},
			{"release-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				// Re-forwarded (server-owned) and the ack goes to the
				// refreshed address.
				releaseRetransmit(s, L, K, manualClient2)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 0, 1, 1)
				serverReleaseAck(s, L, K)
				wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient2))
				wantTables(t, s, 0, 0, 0)
			}},
			{"release-ack", func(t *testing.T, s *Switch, conn *manualConn) {
				serverReleaseAck(s, L, K)
				wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient))
				wantTables(t, s, 0, 0, 0)
				acquireRetransmit(s, L, K, manualClient)
				wantSent(t, conn)
			}},
			{"lease-release", func(t *testing.T, s *Switch, conn *manualConn) {
				// The pending release is dropped without an ack; the
				// server's later ack finds nothing to complete.
				leaseRelease(s, L, K)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 0, 0, 0)
				serverReleaseAck(s, L, K)
				wantSent(t, conn)
			}},
		},
		"done": {
			{"acquire-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				acquireRetransmit(s, L, K, manualClient)
				wantSent(t, conn)
				wantTables(t, s, 0, 0, 0)
			}},
			{"release-retransmit", func(t *testing.T, s *Switch, conn *manualConn) {
				releaseRetransmit(s, L, K, manualClient)
				wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient))
				wantTables(t, s, 0, 0, 0)
			}},
			{"release-ack", func(t *testing.T, s *Switch, conn *manualConn) {
				serverReleaseAck(s, L, K)
				wantSent(t, conn)
				wantTables(t, s, 0, 0, 0)
			}},
			{"lease-release", func(t *testing.T, s *Switch, conn *manualConn) {
				leaseRelease(s, L, K)
				wantSent(t, conn, toServer(wire.OpRelease, L, K))
				wantTables(t, s, 0, 0, 0)
				acquireRetransmit(s, L, K, manualClient)
				wantSent(t, conn)
			}},
		},
	}
	for _, ph := range phases {
		for _, st := range cases[ph.name] {
			t.Run(ph.name+"/"+st.name, func(t *testing.T) {
				s, conn := manualSwitch(t, false)
				ph.setup(s)
				conn.take()
				wantTables(t, s, ph.tables[0], ph.tables[1], ph.tables[2])
				st.check(t, s, conn)
			})
		}
	}
}

// TestSwitchResidentPendingRetransmit: a retransmit of an acquire queued in
// the switch's own data plane only refreshes the return address — a second
// enqueue would be a ghost holder — and the hand-off grant goes to the new
// address.
func TestSwitchResidentPendingRetransmit(t *testing.T) {
	const L = manualResidentLock
	s, conn := manualSwitch(t, false)
	acquireRetransmit(s, L, 1, manualClient)
	acquireRetransmit(s, L, 2, manualClient)
	wantSent(t, conn, toClient(wire.OpGrant, L, 1, manualClient))
	wantTables(t, s, 1, 1, 0)

	acquireRetransmit(s, L, 2, manualClient2)
	wantSent(t, conn)
	releaseRetransmit(s, L, 1, manualClient)
	wantSent(t, conn, toClient(wire.OpGrant, L, 2, manualClient2), toClient(wire.OpReleaseAck, L, 1, manualClient))
	wantTables(t, s, 0, 1, 0)
	var slots []sharedqueue.Slot
	var err error
	s.WithDataPlane(func(d *switchdp.Switch) { slots, err = d.CtrlQueuedSlots(L, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if depth := len(slots); depth != 1 {
		t.Fatalf("queue depth %d after the hand-off, want 1 (no ghost)", depth)
	}
}

// TestImportedKeySurvivesDoneRing: a key the fabric re-home purges is
// tombstoned in the done window; when the same key is imported back as a
// granted hold, the window's later eviction of that tombstone must not
// take the imported grant with it.
func TestImportedKeySurvivesDoneRing(t *testing.T) {
	const L, K = manualServerLock, 100
	s, conn := manualSwitch(t, false)
	acquireRetransmit(s, L, K, manualClient)
	serverGrant(s, L, K)
	s.PurgeClientState(func(id uint32) bool { return id == L })
	wantTables(t, s, 0, 0, 0)

	hdr := clientOp(wire.OpAcquire, L, K)
	s.stampClient(&hdr, manualClient)
	s.ImportClientState(true, &hdr, 0)
	wantTables(t, s, 0, 1, 0)

	// Push a full window of other keys through completion on the resident
	// lock, evicting every older tombstone, the purged key's included.
	for txn := uint64(1000); txn < 1000+doneWindow; txn++ {
		acquireRetransmit(s, manualResidentLock, txn, manualClient2)
		releaseRetransmit(s, manualResidentLock, txn, manualClient2)
	}
	conn.take()

	acquireRetransmit(s, L, K, manualClient)
	wantSent(t, conn, toClient(wire.OpGrant, L, K, manualClient))
	wantTables(t, s, 0, 1, 0)
	releaseRetransmit(s, L, K, manualClient)
	wantSent(t, conn, toServer(wire.OpRelease, L, K))
	serverReleaseAck(s, L, K)
	wantSent(t, conn, toClient(wire.OpReleaseAck, L, K, manualClient))
}
