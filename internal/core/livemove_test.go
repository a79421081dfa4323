package core

import (
	"testing"

	"netlock/internal/memalloc"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Live moves transfer occupied queues between switch and server without a
// drain. These tests cover both directions plus the rack-reshaping
// operations (AddServer, DrainServer) built on them.

func acqShared(lockID uint32, txn uint64) *wire.Header {
	h := acq(lockID, txn)
	h.Mode = wire.Shared
	return h
}

func relShared(lockID uint32, txn uint64) *wire.Header {
	h := rel(lockID, txn)
	h.Mode = wire.Shared
	return h
}

func TestLivePromoteBusyLock(t *testing.T) {
	m := newManager(1)
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1))       // granted exclusive
	srv.ProcessPacket(acqShared(5, 2)) // waits
	srv.ProcessPacket(acqShared(5, 3)) // waits

	rep, err := m.MoveToSwitch(5, 8)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if len(rep.Granted) != 1 || rep.Granted[0] != 1 {
		t.Fatalf("report granted = %v, want [1]", rep.Granted)
	}
	if len(rep.Waiting) != 2 {
		t.Fatalf("report waiting = %v, want [2 3]", rep.Waiting)
	}
	if !m.Switch().CtrlHasLock(5) {
		t.Fatalf("lock not resident after promote")
	}
	if srv.CtrlOwns(5) {
		t.Fatalf("server still owns lock after promote")
	}
	// The exclusive holder blocks new arrivals — proof state moved intact.
	emits, _ := m.Switch().ProcessPacket(acqShared(5, 4))
	if len(emits) != 0 {
		t.Fatalf("shared granted past exclusive holder: %v", emits)
	}
	// Release grants the migrated shared run plus the post-move arrival.
	emits, _ = m.Switch().ProcessPacket(rel(5, 1))
	want := []uint64{2, 3, 4}
	if len(emits) != len(want) {
		t.Fatalf("release emits = %v", emits)
	}
	for i, w := range want {
		if emits[i].Hdr.TxnID != w || emits[i].Action != switchdp.ActGrant {
			t.Fatalf("grant %d = %v, want txn %d", i, emits[i], w)
		}
	}
}

func TestLiveDemoteBusyLock(t *testing.T) {
	m := newManager(1)
	// Make the lock resident, then load it with a holder and waiters.
	if err := m.PreinstallLock(7, 8); err != nil {
		t.Fatalf("preinstall: %v", err)
	}
	m.Switch().ProcessPacket(acq(7, 1))
	m.Switch().ProcessPacket(acqShared(7, 2))

	rep, emits, err := m.MoveToServer(7)
	if err != nil {
		t.Fatalf("demote: %v", err)
	}
	if len(emits) != 0 {
		t.Fatalf("demote with empty q2 emitted %v", emits)
	}
	if len(rep.Granted) != 1 || rep.Granted[0] != 1 || len(rep.Waiting) != 1 || rep.Waiting[0] != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if m.Switch().CtrlHasLock(7) {
		t.Fatalf("lock still resident after demote")
	}
	srv := m.Server(m.ServerFor(7))
	if !srv.CtrlOwns(7) {
		t.Fatalf("server does not own lock after demote")
	}
	// The waiter is granted when the migrated holder releases at the server.
	out := srv.ProcessPacket(rel(7, 1))
	if len(out) != 1 || out[0].Hdr.TxnID != 2 {
		t.Fatalf("post-demote release emits = %v", out)
	}
	// Slots were freed: the full capacity is reusable.
	if m.FreeSlots() != m.SwitchCapacity() {
		t.Fatalf("free = %d, capacity = %d", m.FreeSlots(), m.SwitchCapacity())
	}
}

// A promote whose requested slot count is smaller than the live queue depth
// widens the allocation instead of dropping entries.
func TestLivePromoteWidensForDeepQueue(t *testing.T) {
	m := newManager(1)
	srv := m.Server(m.ServerFor(5))
	for txn := uint64(1); txn <= 6; txn++ {
		srv.ProcessPacket(acq(5, txn))
	}
	rep, err := m.MoveToSwitch(5, 2) // queue depth 6 > 2 requested
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if n := len(rep.Granted) + len(rep.Waiting); n != 6 {
		t.Fatalf("migrated %d entries, want 6", n)
	}
	// Drain through the switch: strict FIFO of the migrated queue.
	for txn := uint64(1); txn < 6; txn++ {
		emits, _ := m.Switch().ProcessPacket(rel(5, txn))
		if len(emits) != 1 || emits[0].Hdr.TxnID != txn+1 {
			t.Fatalf("release %d emits = %v", txn, emits)
		}
	}
}

// A promote that cannot fit rolls the state back to the server losslessly.
func TestLivePromoteRollsBackOnCapacityFailure(t *testing.T) {
	m := New(Config{
		Switch:  switchdp.Config{MaxLocks: 4, TotalSlots: 4, Priorities: 1},
		Servers: 1,
	})
	srv := m.Server(m.ServerFor(5))
	for txn := uint64(1); txn <= 6; txn++ { // deeper than total switch memory
		srv.ProcessPacket(acq(5, txn))
	}
	if _, err := m.MoveToSwitch(5, 2); err == nil {
		t.Fatalf("promote of 6 entries into 4 slots accepted")
	}
	if !srv.CtrlOwns(5) {
		t.Fatalf("rollback did not restore server ownership")
	}
	out := srv.ProcessPacket(rel(5, 1))
	if len(out) != 1 || out[0].Hdr.TxnID != 2 {
		t.Fatalf("post-rollback release emits = %v", out)
	}
}

// Demote replays overflow requests the server buffered while the lock was
// switch-resident, behind the migrated queue.
func TestLiveDemoteReplaysOverflow(t *testing.T) {
	m := newManager(1)
	if err := m.PreinstallLock(7, 8); err != nil {
		t.Fatalf("preinstall: %v", err)
	}
	m.Switch().ProcessPacket(acqShared(7, 1))
	// An overflow-marked request buffered at the server (q2).
	srv := m.Server(m.ServerFor(7))
	ovf := acqShared(7, 9)
	ovf.Flags = wire.FlagOverflow | wire.FlagBounced
	srv.ProcessPacket(ovf)

	_, emits, err := m.MoveToServer(7)
	if err != nil {
		t.Fatalf("demote: %v", err)
	}
	// The buffered shared joins the migrated shared holder immediately.
	if len(emits) != 1 || emits[0].Hdr.TxnID != 9 {
		t.Fatalf("q2 replay emits = %v", emits)
	}
}

func TestPlacementTracksLiveMoves(t *testing.T) {
	m := newManager(1)
	if _, err := m.MoveToSwitch(3, 4); err != nil {
		t.Fatalf("promote idle lock: %v", err)
	}
	p := m.Placement()
	if len(p) != 1 || p[3] != 4 {
		t.Fatalf("placement = %v, want {3:4}", p)
	}
	if _, _, err := m.MoveToServer(3); err != nil {
		t.Fatalf("demote: %v", err)
	}
	if len(m.Placement()) != 0 {
		t.Fatalf("placement after demote = %v", m.Placement())
	}
}

// AddServer rehashes the static partition; locks whose home changes migrate
// live with their queue state.
func TestAddServerMigratesRehashedLocks(t *testing.T) {
	m := newManager(2)
	// Find a lock whose home changes when the rack grows from 2 to 3.
	var moved uint32
	for id := uint32(1); id < 100; id++ {
		if lockserverHome(id, 2) != lockserverHome(id, 3) {
			moved = id
			break
		}
	}
	if moved == 0 {
		t.Fatalf("no lock rehashes from 2 to 3 servers")
	}
	oldHome := m.ServerFor(moved)
	m.Server(oldHome).ProcessPacket(acq(moved, 1))
	m.Server(oldHome).ProcessPacket(acq(moved, 2))

	idx, emits := m.AddServer()
	if idx != 2 {
		t.Fatalf("new server index = %d", idx)
	}
	if len(emits) != 0 {
		t.Fatalf("rehash emitted %v", emits)
	}
	newHome := m.ServerFor(moved)
	if newHome == oldHome {
		t.Fatalf("lock %d did not rehash", moved)
	}
	if m.Server(oldHome).CtrlOwns(moved) {
		t.Fatalf("old home still owns lock %d", moved)
	}
	if !m.Server(newHome).CtrlOwns(moved) {
		t.Fatalf("new home does not own lock %d", moved)
	}
	// State intact: the waiter is granted at the new home.
	out := m.Server(newHome).ProcessPacket(rel(moved, 1))
	if len(out) != 1 || out[0].Hdr.TxnID != 2 {
		t.Fatalf("post-rehash release emits = %v", out)
	}
}

// DrainServer evacuates all owned locks and overflow residue to the target
// and redirects the partition, while the victim redirects stragglers.
func TestDrainServerEvacuatesState(t *testing.T) {
	m := newManager(2)
	// Find locks homed on each server.
	var on0, on1 uint32
	for id := uint32(1); id < 100 && (on0 == 0 || on1 == 0); id++ {
		switch m.ServerFor(id) {
		case 0:
			if on0 == 0 {
				on0 = id
			}
		case 1:
			if on1 == 0 {
				on1 = id
			}
		}
	}
	victim := m.ServerFor(on0)
	target := 1 - victim
	m.Server(victim).ProcessPacket(acq(on0, 1))
	m.Server(victim).ProcessPacket(acq(on0, 2))
	// Overflow residue for a switch-resident lock homed on the victim.
	_ = m.PreinstallLock(on0+2*uint32(m.NumServers()), 4) // best-effort: only if it happens to home on victim

	emits, err := m.DrainServer(victim, target)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(emits) != 0 {
		t.Fatalf("drain emitted %v", emits)
	}
	if !m.Server(target).CtrlOwns(on0) {
		t.Fatalf("target does not own evacuated lock")
	}
	// Routing flipped: the victim's partition resolves to the target.
	if m.ServerFor(on0) != target {
		t.Fatalf("ServerFor(%d) = %d, want %d", on0, m.ServerFor(on0), target)
	}
	// Stragglers that still reach the victim get a moved redirect.
	out := m.Server(victim).ProcessPacket(acq(on0, 3))
	if len(out) != 1 || out[0].Hdr.Op != wire.OpReject || out[0].Hdr.Flags&wire.FlagMoved == 0 {
		t.Fatalf("straggler emits = %v, want OpReject+FlagMoved", out)
	}
	// The evacuated queue drains correctly at the target.
	out = m.Server(target).ProcessPacket(rel(on0, 1))
	if len(out) != 1 || out[0].Hdr.TxnID != 2 {
		t.Fatalf("post-drain release emits = %v", out)
	}
	// Draining into the drained server must be rejected (cycle).
	if _, err := m.DrainServer(target, victim); err == nil {
		t.Fatalf("drain into a redirected victim accepted")
	}
}

// lockserverHome mirrors lockserver.RSSCore for test-side home prediction.
func lockserverHome(id uint32, n int) int {
	return int((uint64(id) * 11400714819323198485) >> 32 % uint64(n))
}

// A lock promoted live is kept by the next Reallocate round that plans it
// at the same size.
func TestLiveMoveThenReallocate(t *testing.T) {
	m := newManager(1)
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1))
	if _, err := m.MoveToSwitch(5, 8); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if moves, _ := m.Reallocate([]memalloc.Demand{demand(5, 1e6, 8)}, nil); len(moves) != 0 {
		t.Fatalf("reallocate moved the live-moved lock: %+v", moves)
	}
	if !m.Switch().CtrlHasLock(5) {
		t.Fatalf("lock 5 not resident after reallocate")
	}
}
