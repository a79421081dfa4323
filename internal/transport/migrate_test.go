package transport

import (
	"testing"
	"time"

	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Chain-level live-migration tests: a lock with occupied queue state is
// moved between the switch chain and the lock server while holders and
// waiters are outstanding, using raw probes so the grant/release flow
// across the move boundary is visible frame by frame. The controller-level
// orchestration (region allocation, drains, rebalancing) is tested in
// internal/ctrlplane and internal/scenario.

// installChainLock installs lockID on every chain member (same regions,
// deterministic) and releases ownership at the server, mirroring what
// ctrlplane.Controller.InstallLock does on a live rack.
func installChainLock(t *testing.T, sws []*Switch, srv *Server, lockID uint32, regions []switchdp.Region) {
	t.Helper()
	for _, sw := range sws {
		var err error
		sw.WithDataPlane(func(dp *switchdp.Switch) {
			err = dp.CtrlInstallLock(lockID, regions)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	srv.WithLockServer(func(ls *lockserver.Server) {
		err = ls.CtrlReleaseOwnership(lockID)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// primeImport stakes lockID out at srv ahead of a demote, as the
// controller does, so racing requests bounce instead of adopting it.
func primeImport(srv *Server, lockID uint32) {
	srv.WithLockServer(func(ls *lockserver.Server) { ls.CtrlPrepareImport(lockID) })
}

// serverExport exports srv's queue state for lockID, releasing ownership.
func serverExport(t *testing.T, srv *Server, lockID uint32) wire.LockState {
	t.Helper()
	var st wire.LockState
	var err error
	srv.WithLockServer(func(ls *lockserver.Server) { st, err = ls.CtrlExportLock(lockID) })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serverImport installs st at srv, rebased onto the server's clock.
func serverImport(t *testing.T, srv *Server, st wire.LockState) {
	t.Helper()
	var now int64
	srv.WithLockServer(func(ls *lockserver.Server) { now = ls.CtrlNow() })
	if err := srv.ImportLock(st.Rebase(now)); err != nil {
		t.Fatal(err)
	}
}

// waitResident polls until the lock's residency on the member matches want
// — non-head members apply chain frames asynchronously, so residency flips
// a frame's flight time after the head's entry point returns.
func waitResident(t *testing.T, sw *Switch, lockID uint32, want bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var got bool
		sw.WithDataPlane(func(dp *switchdp.Switch) { got = dp.CtrlHasLock(lockID) })
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock %d residency %v, want %v", lockID, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChainDemoteLiveLock: a switch-resident lock with a holder and a
// queued waiter is demoted to the lock server mid-flight. No grant is
// lost: the holder's release (which now lands on a non-resident lock and
// is forwarded to the server) unblocks the migrated waiter.
func TestChainDemoteLiveLock(t *testing.T) {
	sws, srv := chainRack(t, 3, dpConfig())
	holder, waiter := newProbe(t), newProbe(t)
	const lockID = 5

	installChainLock(t, sws, srv, lockID, []switchdp.Region{{Left: 0, Right: 8}})

	holder.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 1}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("holder not granted by switch")
	}
	waiter.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 2}, sws[0].Addr())
	time.Sleep(20 * time.Millisecond) // let the waiter reach the switch queue

	primeImport(srv, lockID)
	ex, err := sws[0].MigrateDemoteLock(lockID)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ex.Banks[0]); got != 2 {
		t.Fatalf("export carries %d entries, want holder+waiter", got)
	}
	serverImport(t, srv, ex)

	// Every member evicts the lock at the same op-stream position (the
	// non-head members a frame's flight time later).
	for _, sw := range sws {
		waitResident(t, sw, lockID, false)
	}

	// The release now takes the not-resident path to the server, which
	// grants the migrated waiter (granted bit preserved for the holder —
	// the release must match, not be treated as spurious).
	holder.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 1}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("holder's release not acked across the demote")
	}
	if _, ok := waiter.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("migrated waiter never granted after the holder released")
	}
	waiter.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 2}, sws[0].Addr())
	if _, ok := waiter.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("waiter's release not acked")
	}
}

// TestChainPromoteLiveLock: a server-owned lock with a holder and a queued
// waiter is promoted into the chain mid-flight. The waiter's grant after
// the holder releases comes from the switch data plane on every member.
func TestChainPromoteLiveLock(t *testing.T) {
	sws, srv := chainRack(t, 3, dpConfig())
	holder, waiter := newProbe(t), newProbe(t)
	const lockID = 6

	holder.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 3}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("holder not granted by server")
	}
	waiter.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 4}, sws[0].Addr())
	time.Sleep(20 * time.Millisecond) // let the waiter queue at the server

	ex := serverExport(t, srv, lockID)
	if got := len(ex.Banks[0]); got != 2 {
		t.Fatalf("export carries %d entries, want holder+waiter", got)
	}
	regions := []switchdp.Region{{Left: 8, Right: 16}}
	if err := sws[0].MigratePromoteLock(regions, ex.Rebase(sws[0].NowNs())); err != nil {
		t.Fatal(err)
	}

	for _, sw := range sws {
		waitResident(t, sw, lockID, true)
	}

	holder.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 3}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("holder's release not acked across the promote")
	}
	if _, ok := waiter.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("migrated waiter never granted by the switch")
	}

	// The waiter's grant came from the replicated data plane, and every
	// member made the identical decision.
	head := waitStatus(t, sws[0], timeout, func(ci ChainInfo) bool { return ci.LogLen == 0 })
	for i, sw := range sws[1:] {
		waitStatus(t, sw, timeout, func(ci ChainInfo) bool {
			return ci.Applied == head.Applied && ci.LogLen == 0
		})
		snap := sw.Snapshot()
		if g := snap.Stats.GrantsQueued; g == 0 {
			t.Errorf("member %d data plane shows no queued grant after promote", i+1)
		}
	}

	waiter.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 4}, sws[0].Addr())
	if _, ok := waiter.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("waiter's release not acked")
	}
}

// TestChainMigrateRoundTrip: demote then promote the same busy lock and
// check the queue state survives both crossings intact and in order.
func TestChainMigrateRoundTrip(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	holder, w1, w2 := newProbe(t), newProbe(t), newProbe(t)
	const lockID = 7

	installChainLock(t, sws, srv, lockID, []switchdp.Region{{Left: 0, Right: 8}})
	holder.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 10}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("holder not granted")
	}
	w1.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Shared, LockID: lockID, TxnID: 11}, sws[0].Addr())
	w2.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Shared, LockID: lockID, TxnID: 12}, sws[0].Addr())
	time.Sleep(20 * time.Millisecond)

	primeImport(srv, lockID)
	ex, err := sws[0].MigrateDemoteLock(lockID)
	if err != nil {
		t.Fatal(err)
	}
	serverImport(t, srv, ex)
	sx := serverExport(t, srv, lockID)
	if got := len(sx.Banks[0]); got != 3 {
		t.Fatalf("round-trip export carries %d entries, want 3", got)
	}
	if err := sws[0].MigratePromoteLock([]switchdp.Region{{Left: 16, Right: 24}}, sx.Rebase(sws[0].NowNs())); err != nil {
		t.Fatal(err)
	}

	// Holder releases: BOTH shared waiters are granted together, in order,
	// from the re-promoted queue — proof the granted bit and FIFO order
	// survived two crossings.
	holder.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 10}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("release not acked after round trip")
	}
	if _, ok := w1.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("first shared waiter not granted after round trip")
	}
	if _, ok := w2.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("second shared waiter not granted after round trip")
	}
}

// TestChainPromoteRetransmitNoGhost: a client retransmit of a queued
// acquire that crosses a server-to-switch move must not claim a second
// data-plane slot. The server's dedup state leaves with the export, so the
// retransmit bounces back to the switch with nothing upstream left to drop
// it; without the chain's CtrlHasTxn guard the bounce would enqueue a
// ghost duplicate whose grant is undeliverable and whose release never
// comes — wedging the lock for every later acquirer.
func TestChainPromoteRetransmitNoGhost(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	holder, waiter, next := newProbe(t), newProbe(t), newProbe(t)
	const lockID = 9

	holder.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 40}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("holder not granted by server")
	}
	req := wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 41}
	waiter.send(&req, sws[0].Addr())
	time.Sleep(20 * time.Millisecond) // let the waiter queue at the server

	// The move begins: the server's queue (holder + waiter) is exported and
	// ownership released — taking the server's dedup state with it.
	ex := serverExport(t, srv, lockID)

	// The waiter's retransmit fires mid-move. The head re-sequences it (the
	// lock is not resident, so the forward leg could have been lost), the
	// server has no state and bounces it, and the bounce ping-pongs between
	// switch and server until an owner exists.
	waiter.send(&req, sws[0].Addr())
	time.Sleep(10 * time.Millisecond)

	if err := sws[0].MigratePromoteLock([]switchdp.Region{{Left: 0, Right: 8}}, ex.Rebase(sws[0].NowNs())); err != nil {
		t.Fatal(err)
	}
	for _, sw := range sws {
		waitResident(t, sw, lockID, true)
	}
	time.Sleep(20 * time.Millisecond) // let the circulating bounce land

	holder.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 40}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("holder's release not acked across the promote")
	}
	if _, ok := waiter.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("migrated waiter never granted")
	}
	waiter.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 41}, sws[0].Addr())
	if _, ok := waiter.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("waiter's release not acked")
	}

	// The decisive probe: with a ghost duplicate of txn 41 still queued the
	// lock is held by a dead entry and this acquire wedges forever.
	next.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 42}, sws[0].Addr())
	if _, ok := next.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("acquire after the move wedged: ghost duplicate holds the lock")
	}
}

// TestChainMigrateGuards: external OpMigrate datagrams are dropped at
// ingress (a forged demote must not evict state), and the head-side entry
// points validate residency and region shape before sequencing anything.
func TestChainMigrateGuards(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	p := newProbe(t)
	const lockID = 8

	installChainLock(t, sws, srv, lockID, []switchdp.Region{{Left: 0, Right: 8}})

	// Forged demote from outside the chain: ignored.
	forged := wire.MigrateDemote(lockID)
	p.send(&forged, sws[0].Addr())
	time.Sleep(20 * time.Millisecond)
	sws[0].WithDataPlane(func(dp *switchdp.Switch) {
		if !dp.CtrlHasLock(lockID) {
			t.Fatal("forged external demote evicted the lock")
		}
	})

	if _, err := sws[0].MigrateDemoteLock(99); err == nil {
		t.Fatal("demote of a non-resident lock did not error")
	}
	if _, err := sws[1].MigrateDemoteLock(lockID); err == nil {
		t.Fatal("demote on a non-head member did not error")
	}
	if err := sws[0].MigratePromoteLock([]switchdp.Region{{Left: 8, Right: 16}}, wire.LockState{LockID: lockID}); err == nil {
		t.Fatal("promote of an already-resident lock did not error")
	}
	if err := sws[0].MigratePromoteLock(nil, wire.LockState{LockID: 99}); err == nil {
		t.Fatal("promote with missing regions did not error")
	}
	overfull := wire.LockState{LockID: 99, Banks: [][]wire.LockEntry{make([]wire.LockEntry, 3)}}
	for i := range overfull.Banks[0] {
		overfull.Banks[0][i] = wire.LockEntry{
			Hdr: wire.Header{Op: wire.OpAcquire, Mode: wire.Shared, LockID: 99, TxnID: uint64(20 + i)},
		}
	}
	if err := sws[0].MigratePromoteLock([]switchdp.Region{{Left: 8, Right: 10}}, overfull); err == nil {
		t.Fatal("promote with more entries than region capacity did not error")
	}

	// The lock is still fully functional after all the rejected attempts.
	p.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 30}, sws[0].Addr())
	if _, ok := p.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("lock unusable after rejected migrate attempts")
	}
}

// TestChainBounceReleaseDuplicateIdempotent: a duplicate release laundered
// through a move bounce must not dequeue another transaction's hold. A
// release retransmit re-sequenced while its lock was server-owned puts two
// copies in flight; when a promote's export lands between them the
// post-export server has no queue state left to deduplicate with and
// bounces both back. The data plane releases by queue head, not by
// transaction (§4.2), so without the CtrlHasTxn admission check the second
// bounce silently frees whoever holds the lock next — a double grant the
// moment another acquire arrives.
func TestChainBounceReleaseDuplicateIdempotent(t *testing.T) {
	sws, srv := chainRack(t, 2, dpConfig())
	holder, waiter, next := newProbe(t), newProbe(t), newProbe(t)
	const lockID = 6

	// Holder granted by the server (first contact), waiter queued behind.
	holder.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 50}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("holder not granted by server")
	}
	waiter.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 51}, sws[0].Addr())
	time.Sleep(20 * time.Millisecond) // let the waiter queue at the server

	// Promote the occupied lock into the switch.
	ex := serverExport(t, srv, lockID)
	if err := sws[0].MigratePromoteLock([]switchdp.Region{{Left: 0, Right: 8}}, ex.Rebase(sws[0].NowNs())); err != nil {
		t.Fatal(err)
	}
	for _, sw := range sws {
		waitResident(t, sw, lockID, true)
	}

	// Holder releases normally; the waiter inherits the lock.
	holder.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 50}, sws[0].Addr())
	if _, ok := holder.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("holder's release not acked")
	}
	if _, ok := waiter.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("waiter never granted")
	}

	// The stale duplicate lands: a second copy of the holder's release,
	// bounced off the post-export server, arrives at the head after the
	// original completed. Inject it at the sequencing layer exactly as the
	// server bounce path delivers it.
	stale := wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 50}
	sws[0].mu.Lock()
	sws[0].sequence(wire.OriginServer, &stale)
	sws[0].mu.Unlock()
	time.Sleep(20 * time.Millisecond)

	// Decisive probe: the waiter still holds, so this acquire must queue.
	// With the stale bounce admitted to the data plane it dequeued the
	// waiter's hold, and this grant arrives immediately — mutual exclusion
	// broken.
	next.send(&wire.Header{Op: wire.OpAcquire, Mode: wire.Exclusive, LockID: lockID, TxnID: 52}, sws[0].Addr())
	if _, ok := next.recv(wire.OpGrant, 100*time.Millisecond); ok {
		t.Fatal("acquire granted while the migrated waiter still holds: stale bounce release stole the hold")
	}

	// The rack is intact: the waiter's release unblocks the probe.
	waiter.send(&wire.Header{Op: wire.OpRelease, LockID: lockID, TxnID: 51}, sws[0].Addr())
	if _, ok := waiter.recv(wire.OpReleaseAck, timeout); !ok {
		t.Fatal("waiter's release not acked")
	}
	if _, ok := next.recv(wire.OpGrant, timeout); !ok {
		t.Fatal("acquire after the release wedged")
	}
}
