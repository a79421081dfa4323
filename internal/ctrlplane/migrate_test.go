package ctrlplane

import (
	"context"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"netlock"
	"netlock/internal/core"
	"netlock/internal/lockserver"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

// Rack-level live-move tests: a Topology with real clients moves busy
// locks between the chain and the servers, drains a server, and grows the
// tier — all with grants held and waiters queued across the boundary.

// asyncAcquire starts an exclusive acquire in the background and returns
// the channel its grant (or error) lands on.
func asyncAcquire(t *testing.T, c *transport.Client, lockID uint32) chan *transport.Grant {
	t.Helper()
	ch := make(chan *transport.Grant, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		g, err := c.Acquire(ctx, lockID, netlock.Exclusive)
		if err != nil {
			t.Errorf("async acquire %d: %v", lockID, err)
			ch <- nil
			return
		}
		ch <- g
	}()
	return ch
}

// ownedBy reports whether any of servers owns lockID.
func ownedBy(servers []*transport.Server, lockID uint32) bool {
	owned := false
	for _, srv := range servers {
		srv.WithLockServer(func(ls *lockserver.Server) { owned = owned || ls.CtrlOwns(lockID) })
	}
	return owned
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMoveToServerLive: a switch-resident lock with a holder and a waiter
// is demoted mid-flight; the report names both, and the waiter's grant
// arrives from the server after the holder releases.
func TestMoveToServerLive(t *testing.T) {
	tp := topo(t, Config{Switches: 2, SwitchLocks: []SwitchLock{{ID: 5, Slots: 8}}})
	c := fastClient(t, tp)
	ctrl := tp.Controller()

	holder := acquire(t, c, 5)
	waiterCh := asyncAcquire(t, c, 5)
	waitFor(t, "waiter to queue at the switch", func() bool {
		var n int
		tp.Head().WithDataPlane(func(dp *switchdp.Switch) {
			slots, _ := dp.CtrlQueuedSlots(5, 0)
			n = len(slots)
		})
		return n == 2
	})

	rep, err := ctrl.MoveToServer(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Granted) != 1 || len(rep.Waiting) != 1 {
		t.Fatalf("move report granted=%d waiting=%d, want 1/1", len(rep.Granted), len(rep.Waiting))
	}
	if _, ok := ctrl.Placement()[5]; ok {
		t.Fatal("lock 5 still in the placement map after demote")
	}

	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter failed across the demote")
	}
	g.Release()
}

// TestMoveToSwitchLive: a server-owned lock with a holder and a waiter is
// promoted mid-flight; the switch grants the migrated waiter when the
// holder releases.
func TestMoveToSwitchLive(t *testing.T) {
	tp := topo(t, Config{Switches: 2})
	c := fastClient(t, tp)
	ctrl := tp.Controller()
	const lockID = 2

	holder := acquire(t, c, lockID)
	waiterCh := asyncAcquire(t, c, lockID)
	home := tp.Servers()[ctrl.ServerIndexFor(lockID)]
	waitFor(t, "waiter to queue at the server", func() bool {
		var n int
		home.WithLockServer(func(ls *lockserver.Server) { n, _ = ls.CtrlQueueDepth(lockID) })
		return n == 2
	})

	rep, err := ctrl.MoveToSwitch(lockID, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Granted) != 1 || len(rep.Waiting) != 1 {
		t.Fatalf("move report granted=%d waiting=%d, want 1/1", len(rep.Granted), len(rep.Waiting))
	}
	if got := ctrl.Placement()[lockID]; got != 8 {
		t.Fatalf("placement shows %d slots, want 8", got)
	}

	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter failed across the promote")
	}
	g.Release()

	// A fresh acquire/release cycle exercises the promoted residency.
	acquire(t, c, lockID).Release()
}

// TestDrainServerLive: a server is drained while one of its locks is held
// and waited on. The held grant stays releasable, the waiter completes at
// the drain target, and the victim can then fail without the rack
// noticing.
func TestDrainServerLive(t *testing.T) {
	tp := topo(t, Config{Switches: 2})
	c := fastClient(t, tp)
	ctrl := tp.Controller()

	// A lock homed at server 0 under the 2-server partition.
	var lockID uint32
	for id := uint32(1); ; id++ {
		if lockserver.RSSCore(id, 2) == 0 {
			lockID = id
			break
		}
	}
	holder := acquire(t, c, lockID)
	waiterCh := asyncAcquire(t, c, lockID)
	home := tp.Servers()[0]
	waitFor(t, "waiter to queue at the victim", func() bool {
		var n int
		home.WithLockServer(func(ls *lockserver.Server) { n, _ = ls.CtrlQueueDepth(lockID) })
		return n == 2
	})

	if err := ctrl.DrainServer(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.ServerIndexFor(lockID); got != 1 {
		t.Fatalf("lock %d routed to server %d after drain, want 1", lockID, got)
	}
	var owned []uint32
	home.WithLockServer(func(ls *lockserver.Server) { owned = ls.CtrlOwnedLocks() })
	if len(owned) != 0 {
		t.Fatalf("victim still owns %v after drain", owned)
	}
	if err := ctrl.DrainServer(1, 0); err == nil {
		t.Fatal("redirect cycle was not refused")
	}

	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter failed across the drain")
	}
	g.Release()

	// The victim is now fully out of the data path: killing it changes
	// nothing for fresh traffic on its old partition.
	if err := tp.FailServer(0); err != nil {
		t.Fatal(err)
	}
	acquire(t, c, lockID).Release()
}

// TestAddServerLive: the tier grows by one server mid-traffic; rehashed
// locks (including one actively held) migrate to their new homes before
// routing flips, so nothing is lost or double-granted.
func TestAddServerLive(t *testing.T) {
	tp := topo(t, Config{Switches: 2})
	c := fastClient(t, tp)
	ctrl := tp.Controller()

	// A lock that moves to the new server (index 2) when the tier grows.
	var lockID uint32
	for id := uint32(1); ; id++ {
		if lockserver.RSSCore(id, 3) == 2 && lockserver.RSSCore(id, 2) != 2 {
			lockID = id
			break
		}
	}
	holder := acquire(t, c, lockID)
	waiterCh := asyncAcquire(t, c, lockID)
	home := tp.Servers()[lockserver.RSSCore(lockID, 2)]
	waitFor(t, "waiter to queue at the old home", func() bool {
		var n int
		home.WithLockServer(func(ls *lockserver.Server) { n, _ = ls.CtrlQueueDepth(lockID) })
		return n == 2
	})

	idx, err := tp.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("new server index %d, want 2", idx)
	}
	if got := ctrl.ServerIndexFor(lockID); got != 2 {
		t.Fatalf("lock %d routed to server %d after growth, want 2", lockID, got)
	}
	var owns bool
	tp.Servers()[2].WithLockServer(func(ls *lockserver.Server) { owns = ls.CtrlOwns(lockID) })
	if !owns {
		t.Fatalf("new server does not own rehashed lock %d", lockID)
	}

	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter failed across the tier growth")
	}
	g.Release()
	acquire(t, c, lockID).Release()
}

// dpLayout reads every resident lock's per-bank regions out of a data plane.
func dpLayout(dp *switchdp.Switch) map[uint32][]switchdp.Region {
	out := make(map[uint32][]switchdp.Region)
	for _, id := range dp.CtrlResidentLocks() {
		st, _ := dp.CtrlLockState(id)
		for _, b := range st.Banks {
			out[id] = append(out[id], switchdp.Region{Left: b.Left, Right: b.Right})
		}
	}
	return out
}

// TestPlacementMatchesAcrossPlanes runs one preinstall / promote / demote
// sequence on a 2-bank embedded core.Manager and on a 1-member, 2-bank
// rack. Both planes place through the same layout and move through the
// same export → rebase → import, so after every step they must report the
// same Placement, their data planes must hold the same regions — including
// the odd split (remainder to bank 0) and a promotion widened to a live
// queue deeper than its share — and every move must carry the same
// holders and waiters.
func TestPlacementMatchesAcrossPlanes(t *testing.T) {
	dp := switchdp.Config{MaxLocks: 8, TotalSlots: 64, Priorities: 2}
	emb := core.New(core.Config{Switch: dp, Servers: 1})
	tp := topo(t, Config{Servers: 1, DataPlane: dp, Server: lockserver.Config{Priorities: 2}})
	ctrl := tp.Controller()

	// Lock 7 holds one grant and two waiters at its server on both planes.
	queue := func(ls *lockserver.Server) {
		for txn := uint64(1); txn <= 3; txn++ {
			ls.ProcessPacket(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: 7, TxnID: txn,
				ClientIP: netip.AddrFrom4([4]byte{10, 0, 0, 1})})
		}
	}
	queue(emb.Server(0))
	tp.Servers()[0].WithLockServer(queue)

	type step func() (rebalance.Report, error)
	install := func(err error) (rebalance.Report, error) { return rebalance.Report{}, err }
	steps := []struct {
		name     string
		emb, udp step
		carried  int // holders + waiters the move carries
	}{
		{"preinstall 1 x16",
			func() (rebalance.Report, error) { return install(emb.PreinstallLock(1, 16)) },
			func() (rebalance.Report, error) { return install(ctrl.InstallLock(1, 16)) }, 0},
		{"preinstall 2 x3",
			func() (rebalance.Report, error) { return install(emb.PreinstallLock(2, 3)) },
			func() (rebalance.Report, error) { return install(ctrl.InstallLock(2, 3)) }, 0},
		{"promote 7 x2 over a 3-deep queue",
			func() (rebalance.Report, error) { return emb.MoveToSwitch(7, 2) },
			func() (rebalance.Report, error) { return ctrl.MoveToSwitch(7, 2) }, 3},
		{"demote 7 with its queue",
			func() (rebalance.Report, error) { r, _, err := emb.MoveToServer(7); return r, err },
			func() (rebalance.Report, error) { return ctrl.MoveToServer(7) }, 3},
		{"re-promote 7 x2",
			func() (rebalance.Report, error) { return emb.MoveToSwitch(7, 2) },
			func() (rebalance.Report, error) { return ctrl.MoveToSwitch(7, 2) }, 3},
		{"demote 1",
			func() (rebalance.Report, error) { r, _, err := emb.MoveToServer(1); return r, err },
			func() (rebalance.Report, error) { return ctrl.MoveToServer(1) }, 0},
		{"promote cold 9 x20",
			func() (rebalance.Report, error) { return emb.MoveToSwitch(9, 20) },
			func() (rebalance.Report, error) { return ctrl.MoveToSwitch(9, 20) }, 0},
	}
	for _, s := range steps {
		er, err := s.emb()
		if err != nil {
			t.Fatalf("%s: embedded: %v", s.name, err)
		}
		ur, err := s.udp()
		if err != nil {
			t.Fatalf("%s: udp: %v", s.name, err)
		}
		if !reflect.DeepEqual(er, ur) {
			t.Fatalf("%s: move report embedded %+v, udp %+v", s.name, er, ur)
		}
		if n := len(er.Granted) + len(er.Waiting); n != s.carried {
			t.Fatalf("%s: move carried %d entries, want %d: %+v", s.name, n, s.carried, er)
		}
		if e, u := emb.Placement(), ctrl.Placement(); !reflect.DeepEqual(e, u) {
			t.Fatalf("%s: placement embedded %v, udp %v", s.name, e, u)
		}
		var udpLayout map[uint32][]switchdp.Region
		tp.Head().WithDataPlane(func(dp *switchdp.Switch) { udpLayout = dpLayout(dp) })
		if e := dpLayout(emb.Switch()); !reflect.DeepEqual(e, udpLayout) {
			t.Fatalf("%s: regions embedded %v, udp %v", s.name, e, udpLayout)
		}
	}
	want := map[uint32]uint64{2: 3, 7: 4, 9: 20}
	if got := ctrl.Placement(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final placement %v, want %v", got, want)
	}
}
