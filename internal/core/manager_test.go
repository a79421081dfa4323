package core

import (
	"net/netip"
	"reflect"
	"testing"

	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

func newManager(servers int) *Manager {
	return New(Config{
		Switch:  switchdp.Config{MaxLocks: 64, TotalSlots: 128, Priorities: 1},
		Servers: servers,
	})
}

func acq(lockID uint32, txn uint64) *wire.Header {
	return &wire.Header{
		Op:       wire.OpAcquire,
		Mode:     wire.Exclusive,
		LockID:   lockID,
		TxnID:    txn,
		ClientIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
}

func rel(lockID uint32, txn uint64) *wire.Header {
	h := acq(lockID, txn)
	h.Op = wire.OpRelease
	return h
}

func demand(id uint32, rate float64, cont uint64) memalloc.Demand {
	return memalloc.Demand{LockID: id, Rate: rate, Contention: cont}
}

// moved splits a round's moves into the locks it promoted and the locks it
// demoted, each in move order.
func moved(moves []rebalance.Report) (promoted, demoted []uint32) {
	for _, mv := range moves {
		if mv.ToSwitch {
			promoted = append(promoted, mv.LockID)
		} else {
			demoted = append(demoted, mv.LockID)
		}
	}
	return promoted, demoted
}

func TestReallocateInstallsPopularLocks(t *testing.T) {
	m := newManager(2)
	demands := []memalloc.Demand{
		demand(1, 1000, 4),
		demand(2, 10, 2),
		demand(3, 5000, 8),
	}
	moves, _ := m.Reallocate(demands, nil)
	if promoted, _ := moved(moves); len(promoted) != 3 {
		t.Fatalf("promoted = %v (plenty of capacity)", promoted)
	}
	for _, id := range []uint32{1, 2, 3} {
		if !m.Switch().CtrlHasLock(id) {
			t.Fatalf("lock %d not resident", id)
		}
	}
	// Requests for resident locks are now switch-processed.
	emits, _ := m.Switch().ProcessPacket(acq(3, 1))
	if len(emits) != 1 || emits[0].Action != switchdp.ActGrant {
		t.Fatalf("emits = %v", emits)
	}
}

func TestReallocateRespectsCapacity(t *testing.T) {
	m := newManager(1)
	// Capacity is 128; ask for far more.
	var demands []memalloc.Demand
	for id := uint32(1); id <= 20; id++ {
		demands = append(demands, demand(id, float64(1000-id), 10))
	}
	moves, _ := m.Reallocate(demands, nil)
	var used uint64
	for _, slots := range m.Placement() {
		used += slots
	}
	if used > 128 {
		t.Fatalf("placement uses %d slots > capacity", used)
	}
	promoted, _ := moved(moves)
	if len(promoted) == 0 || len(promoted) != len(m.Placement()) {
		t.Fatalf("promoted %v, placement %v", promoted, m.Placement())
	}
	// The most valuable locks (highest r/c: lowest IDs here) are resident.
	if !m.Switch().CtrlHasLock(1) {
		t.Fatalf("most valuable lock should be resident")
	}
}

func TestReallocateEvictsUnpopular(t *testing.T) {
	m := newManager(1)
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 4)}, nil)
	if !m.Switch().CtrlHasLock(1) {
		t.Fatalf("setup failed")
	}
	// New window: lock 1 cold, lock 2 hot, and capacity only fits one big
	// lock (contention 120 of 128 slots).
	moves, _ := m.Reallocate([]memalloc.Demand{
		demand(1, 0, 0),
		demand(2, 9000, 120),
	}, nil)
	if _, demoted := moved(moves); !reflect.DeepEqual(demoted, []uint32{1}) {
		t.Fatalf("demoted = %v", demoted)
	}
	if !m.Switch().CtrlHasLock(2) || m.Switch().CtrlHasLock(1) {
		t.Fatalf("placement wrong after eviction")
	}
	// Lock 1 is served by its server now.
	srv := m.Server(m.ServerFor(1))
	emits := srv.ProcessPacket(acq(1, 5))
	if len(emits) != 1 {
		t.Fatalf("server did not adopt lock 1: %v", emits)
	}
}

func TestReallocateDefersNonDrainedLocks(t *testing.T) {
	m := newManager(1)
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 4)}, nil)
	// Park a request in the switch queue so lock 1 cannot be drained.
	m.Switch().ProcessPacket(acq(1, 1))
	moves, _ := m.Reallocate([]memalloc.Demand{demand(2, 9000, 4)}, nil)
	if _, demoted := moved(moves); len(demoted) != 0 {
		t.Fatalf("non-drained lock should be deferred, demoted %v", demoted)
	}
	if !m.Switch().CtrlHasLock(1) {
		t.Fatalf("deferred lock must stay resident")
	}
	// After the queue drains, the next round evicts it.
	m.Switch().ProcessPacket(rel(1, 1))
	m.Reallocate([]memalloc.Demand{demand(2, 9000, 4)}, nil)
	if m.Switch().CtrlHasLock(1) {
		t.Fatalf("lock 1 should be evicted after drain")
	}
}

func TestReallocateResize(t *testing.T) {
	m := newManager(1)
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 4)}, nil)
	moves, _ := m.Reallocate([]memalloc.Demand{demand(1, 1000, 16)}, nil)
	if promoted, demoted := moved(moves); !reflect.DeepEqual(promoted, []uint32{1}) || !reflect.DeepEqual(demoted, []uint32{1}) {
		t.Fatalf("resize moves: promoted %v, demoted %v", promoted, demoted)
	}
	st, _ := m.Switch().CtrlLockState(1)
	if got := st.Banks[0].Capacity(); got != 16 {
		t.Fatalf("capacity after resize = %d, want 16", got)
	}
}

func TestReallocateDeferredServerSide(t *testing.T) {
	m := newManager(1)
	// Queue a request at the server so the lock cannot move to the switch.
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1))
	if moves, _ := m.Reallocate([]memalloc.Demand{demand(5, 1000, 4)}, nil); len(moves) != 0 {
		t.Fatalf("busy lock moved: %+v", moves)
	}
	// Release at the server, then the move succeeds.
	srv.ProcessPacket(rel(5, 1))
	moves, _ := m.Reallocate([]memalloc.Demand{demand(5, 1000, 4)}, nil)
	if promoted, _ := moved(moves); !reflect.DeepEqual(promoted, []uint32{5}) {
		t.Fatalf("promote after drain failed: %+v", moves)
	}
}

func TestReallocateAdoptionDeliversBufferedGrants(t *testing.T) {
	m := newManager(1)
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 2)}, nil)
	// Overflow the 2-slot region; the third request is buffered at the
	// server (after the bounce round trip).
	sw := m.Switch()
	srv := m.Server(0)
	sw.ProcessPacket(acq(1, 1))
	sw.ProcessPacket(acq(1, 2))
	emits, _ := sw.ProcessPacket(acq(1, 3))
	if emits[0].Action != switchdp.ActForwardOverflow {
		t.Fatalf("expected overflow forward: %v", emits)
	}
	sEmits := srv.ProcessPacket(&emits[0].Hdr) // bounce as push
	pb := sEmits[0].Hdr
	emits, _ = sw.ProcessPacket(&pb) // full again -> re-forward marked
	if emits[0].Action != switchdp.ActForwardOverflow {
		t.Fatalf("expected re-forward: %v", emits)
	}
	srv.ProcessPacket(&emits[0].Hdr) // buffered in q2
	// Drain the switch queue completely.
	sw.ProcessPacket(rel(1, 1))
	sw.ProcessPacket(rel(1, 2))
	// Evict: the adoption at the server must grant the buffered request.
	moves, grants := m.Reallocate([]memalloc.Demand{demand(1, 0, 0)}, nil)
	if _, demoted := moved(moves); len(demoted) != 1 {
		t.Fatalf("eviction failed: %+v", moves)
	}
	if len(grants) != 1 || grants[0].Hdr.TxnID != 3 {
		t.Fatalf("adoption emits = %v", grants)
	}
}

// TestPendingMoveRetriesAcrossManyRounds: a lock busy at its server is
// left there round after round, and the first round after it drains
// promotes it.
func TestPendingMoveRetriesAcrossManyRounds(t *testing.T) {
	m := newManager(1)
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1))
	demands := []memalloc.Demand{demand(5, 1e6, 8)}
	for round := 0; round < 6; round++ {
		if moves, _ := m.Reallocate(demands, nil); len(moves) != 0 {
			t.Fatalf("round %d: busy lock moved: %+v", round, moves)
		}
	}
	srv.ProcessPacket(rel(5, 1))
	moves, _ := m.Reallocate(demands, nil)
	if promoted, _ := moved(moves); !reflect.DeepEqual(promoted, []uint32{5}) {
		t.Fatalf("move should complete after drain: %+v", moves)
	}
}

// TestPendingMoveAbortedWhenDroppedFromPlan: a lock left at its server
// because it was busy, which then drops out of the plan, stays there and
// keeps serving its queue.
func TestPendingMoveAbortedWhenDroppedFromPlan(t *testing.T) {
	m := newManager(1)
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1)) // busy (never released below)
	for round := 0; round < 3; round++ {
		m.Reallocate([]memalloc.Demand{demand(5, 1e6, 8)}, nil)
	}
	srv.ProcessPacket(acq(5, 2))
	m.Reallocate([]memalloc.Demand{demand(9, 1e6, 8)}, nil)
	if m.Switch().CtrlHasLock(5) {
		t.Fatalf("busy lock dropped from the plan was moved")
	}
	if owned, buffered := srv.CtrlQueueDepth(5); owned != 2 || buffered != 0 {
		t.Fatalf("depths = %d/%d, want 2/0", owned, buffered)
	}
	emits := srv.ProcessPacket(rel(5, 1))
	if len(emits) != 1 || emits[0].Hdr.TxnID != 2 {
		t.Fatalf("waiter not granted: %v", emits)
	}
}

// TestReallocateDemotesDeterministic: a round's demotions walk the
// resident locks in lock-ID order, not map order, so the moves and the
// grants their q2 replays emit are the same on every run. Eight resident
// locks each hold one overflow request buffered at the server; twenty
// fresh managers each run the one round that demotes all eight.
func TestReallocateDemotesDeterministic(t *testing.T) {
	type outcome struct {
		Moves []rebalance.Report
		Emits []uint64
	}
	locks := []uint32{4, 6, 2, 7, 5, 3, 1, 8}
	run := func() outcome {
		m := newManager(1)
		for _, id := range locks {
			if err := m.PreinstallLock(id, 4); err != nil {
				t.Fatalf("preinstall %d: %v", id, err)
			}
			ovf := acq(id, uint64(id)*10+3)
			ovf.Flags = wire.FlagOverflow | wire.FlagBounced
			m.Server(0).ProcessPacket(ovf)
		}
		moves, emits := m.Reallocate(nil, nil)
		out := outcome{Moves: moves}
		for _, e := range emits {
			out.Emits = append(out.Emits, e.Hdr.TxnID)
		}
		return out
	}
	want := run()
	if _, demoted := moved(want.Moves); !reflect.DeepEqual(demoted, []uint32{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("demoted %v, want locks 1..8 in order", demoted)
	}
	if !reflect.DeepEqual(want.Emits, []uint64{13, 23, 33, 43, 53, 63, 73, 83}) {
		t.Fatalf("q2 replay grants %v, want 13..83 in lock order", want.Emits)
	}
	for i := 1; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("manager %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestCompactMergesFreeSpace(t *testing.T) {
	m := newManager(1)
	// Install locks 1..8 with 16 slots each (fills 128), then evict the
	// even ones to shatter the space.
	var demands []memalloc.Demand
	for id := uint32(1); id <= 8; id++ {
		demands = append(demands, demand(id, float64(100*id), 16))
	}
	m.Reallocate(demands, nil)
	demands = nil
	for id := uint32(1); id <= 8; id += 2 {
		demands = append(demands, demand(id, float64(100*id), 16))
	}
	m.Reallocate(demands, nil)
	if m.FreeSlots() != 64 {
		t.Fatalf("free slots = %d, want 64", m.FreeSlots())
	}
	// A 64-slot lock now fits only after compaction, which Reallocate
	// performs automatically on fragmentation.
	moves, _ := m.Reallocate(append(demands, demand(100, 1e6, 64)), nil)
	if promoted, _ := moved(moves); !reflect.DeepEqual(promoted, []uint32{100}) {
		t.Fatalf("compaction did not make room: %+v", moves)
	}
}

// TestMeasureDemandsCombinesSwitchAndServers pins the demand merge both
// planes' MeasureDemands call: a resident lock's switch gauge gains the
// overflow its server buffered, an owned server lock contributes its own
// gauge, a lock a server merely saw is dropped, and the result is sorted.
func TestMeasureDemandsCombinesSwitchAndServers(t *testing.T) {
	sw := []switchdp.LockLoad{{LockID: 1, Requests: 10, MaxQueue: 4}}
	servers := []lockserver.LockLoad{
		{LockID: 9, Owned: true, Requests: 1, MaxConcurrent: 1},
		{LockID: 1, Requests: 0, BufferedPeak: 3},
		{LockID: 5, Requests: 7, MaxConcurrent: 2},
	}
	got := MergeDemands(2.0, sw, servers)
	want := []memalloc.Demand{
		{LockID: 1, Rate: 5.0, Contention: 7},
		{LockID: 9, Rate: 0.5, Contention: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged demands = %+v, want %+v", got, want)
	}
}

func TestMeasureDemandsPanicsOnBadWindow(t *testing.T) {
	m := newManager(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.MeasureDemands(0)
}

func TestSwitchFailureAndRestart(t *testing.T) {
	m := newManager(1)
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 4)}, nil)
	m.Switch().ProcessPacket(acq(1, 1))
	m.FailSwitch()
	if !m.SwitchFailed() {
		t.Fatalf("switch should be failed")
	}
	if m.Switch().CtrlHasLock(1) {
		t.Fatalf("failed switch retained state")
	}
	m.RestartSwitch()
	if m.SwitchFailed() {
		t.Fatalf("switch should be live after restart")
	}
	// The lock table is reinstalled with empty queues.
	if !m.Switch().CtrlHasLock(1) {
		t.Fatalf("restart did not reinstall the lock table")
	}
	st, _ := m.Switch().CtrlLockState(1)
	if st.Held != 0 || st.Banks[0].Count != 0 {
		t.Fatalf("restarted switch not empty: %+v", st)
	}
	emits, _ := m.Switch().ProcessPacket(acq(1, 2))
	if len(emits) != 1 || emits[0].Action != switchdp.ActGrant {
		t.Fatalf("restarted switch not functional: %v", emits)
	}
	// Restart when not failed is a no-op.
	m.RestartSwitch()
}

func TestFailServerReassignsLocks(t *testing.T) {
	m := newManager(2)
	// Find a lock owned by server 0.
	var lockID uint32
	for id := uint32(1); id < 100; id++ {
		if m.ServerFor(id) == 0 {
			lockID = id
			break
		}
	}
	m.Server(0).ProcessPacket(acq(lockID, 1))
	if err := m.FailServer(0, 1); err != nil {
		t.Fatal(err)
	}
	// The replacement owns the lock with empty queues; a resubmitted
	// request is granted there.
	emits := m.Server(1).ProcessPacket(acq(lockID, 1))
	if len(emits) != 1 {
		t.Fatalf("replacement server not serving: %v", emits)
	}
}

func TestFailServerRejectsSelf(t *testing.T) {
	m := newManager(2)
	if err := m.FailServer(1, 1); err == nil {
		t.Fatalf("self-replacement accepted")
	}
	if got := m.ServerFor(1); got != lockserver.RSSCore(1, 2) {
		t.Fatalf("refused failover rerouted lock 1 to server %d", got)
	}
}

func TestSweepLeases(t *testing.T) {
	now := int64(0)
	m := New(Config{
		Switch: switchdp.Config{
			MaxLocks: 16, TotalSlots: 64, Priorities: 1,
			DefaultLeaseNs: 100, Now: func() int64 { return now },
		},
		Servers: 1,
	})
	m.Reallocate([]memalloc.Demand{demand(1, 1000, 4)}, nil)
	m.Switch().ProcessPacket(acq(1, 1))  // resident grant
	m.Server(0).ProcessPacket(acq(9, 2)) // server grant
	now = 200
	rels, emits := m.SweepLeases(now)
	if len(rels) != 1 || rels[0].LockID != 1 {
		t.Fatalf("switch releases = %v", rels)
	}
	_ = emits // no waiters at the server, so no grants
	// While failed, the switch is not swept.
	m.FailSwitch()
	rels, _ = m.SweepLeases(400)
	if len(rels) != 0 {
		t.Fatalf("failed switch swept: %v", rels)
	}
}

func TestServerForIsStable(t *testing.T) {
	m := newManager(4)
	for id := uint32(0); id < 100; id++ {
		a, b := m.ServerFor(id), m.ServerFor(id)
		if a != b || a < 0 || a >= 4 {
			t.Fatalf("partition unstable or out of range")
		}
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero servers")
		}
	}()
	New(Config{Switch: switchdp.Config{MaxLocks: 4, TotalSlots: 16, Priorities: 1}})
}
