package core

import (
	"reflect"
	"testing"

	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Tests for the manager side of the pause-and-move protocol: busy locks
// migrate across rounds, and pending moves are never stranded.

func newPausingManager() *Manager {
	return New(Config{
		Switch:         switchdp.Config{MaxLocks: 64, TotalSlots: 128, Priorities: 1},
		Servers:        1,
		PauseBusyMoves: true,
	})
}

func TestReallocateMovesBusyLock(t *testing.T) {
	m := newPausingManager()
	srv := m.Server(m.ServerFor(5))
	// The lock is busy at its server: a holder plus a waiter.
	srv.ProcessPacket(acq(5, 1))
	srv.ProcessPacket(acq(5, 2))
	// The first rounds defer (cheap); after the deferral streak the move
	// is initiated (paused) but still not completed.
	var rep Report
	for round := 0; round < 3; round++ {
		rep = m.Reallocate([]memalloc.Demand{demand(5, 1e6, 8)}, nil)
		if len(rep.Installed) != 0 {
			t.Fatalf("busy lock must not install immediately: %+v", rep)
		}
	}
	// New requests arriving during the drain are buffered, not processed.
	srv.ProcessPacket(acq(5, 3))
	if owned, buffered := srv.CtrlQueueDepth(5); owned != 2 || buffered != 1 {
		t.Fatalf("depths = %d/%d, want 2/1 (paused)", owned, buffered)
	}
	// The queue drains.
	srv.ProcessPacket(rel(5, 1))
	srv.ProcessPacket(rel(5, 2))
	// Round 2: the pending move completes even though the (paused) lock
	// generated no measurable demand this window — it must not be
	// stranded. The buffered request surfaces as a switch push.
	rep = m.Reallocate([]memalloc.Demand{demand(5, 1e6, 8)}, nil)
	if len(rep.Installed) != 1 || rep.Installed[0] != 5 {
		t.Fatalf("move did not complete: %+v", rep)
	}
	if len(rep.SwitchPushes) != 1 || rep.SwitchPushes[0].TxnID != 3 {
		t.Fatalf("buffered request not pushed to switch: %v", rep.SwitchPushes)
	}
	// Injecting the push grants it from the switch.
	h := rep.SwitchPushes[0]
	emits, _ := m.Switch().ProcessPacket(&h)
	if len(emits) != 1 {
		t.Fatalf("pushed request not granted: %v", emits)
	}
}

func TestPendingMoveAbortedWhenDroppedFromPlan(t *testing.T) {
	m := newPausingManager()
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1)) // busy forever (never released)
	// Rounds 1..3: deferred, then the move is initiated (paused).
	for round := 0; round < 3; round++ {
		m.Reallocate([]memalloc.Demand{demand(5, 1e6, 8)}, nil)
	}
	srv.ProcessPacket(acq(5, 2)) // buffered during the pause
	// Round 2: the paused lock produced no traffic and dropped out of the
	// plan; the manager must abort the move so buffered requests resume.
	rep := m.Reallocate([]memalloc.Demand{demand(9, 1e6, 8)}, nil)
	if m.Switch().CtrlHasLock(5) {
		t.Fatalf("aborted move must not install")
	}
	_ = rep
	if owned, buffered := srv.CtrlQueueDepth(5); owned != 2 || buffered != 0 {
		t.Fatalf("depths = %d/%d, want 2/0 (abort resumes processing)", owned, buffered)
	}
	// The resumed waiter is granted on release.
	emits := srv.ProcessPacket(rel(5, 1))
	if len(emits) != 1 || emits[0].Hdr.TxnID != 2 {
		t.Fatalf("waiter not granted after abort: %v", emits)
	}
}

func TestPendingMoveRetriesAcrossManyRounds(t *testing.T) {
	m := newPausingManager()
	srv := m.Server(m.ServerFor(5))
	srv.ProcessPacket(acq(5, 1))
	demands := []memalloc.Demand{demand(5, 1e6, 8)}
	for round := 0; round < 6; round++ {
		rep := m.Reallocate(demands, nil)
		if len(rep.Installed) != 0 {
			t.Fatalf("round %d: busy lock installed prematurely", round)
		}
	}
	srv.ProcessPacket(rel(5, 1))
	rep := m.Reallocate(demands, nil)
	if len(rep.Installed) != 1 {
		t.Fatalf("move should complete after drain: %+v", rep)
	}
}

// TestReallocatePendingMovesDeterministic: the round that resolves paused
// moves must not depend on map iteration order. Nine locks are driven into
// the pending state on twenty fresh managers by one call sequence; then
// three drain (their moves complete), three stay busy (deferred) and three
// drain but leave the plan (aborted). Every manager must report the same
// Installed, Deferred and Emits order and give each lock the same regions.
func TestReallocatePendingMovesDeterministic(t *testing.T) {
	type outcome struct {
		Installed, Deferred []uint32
		Emits               []lockserver.Emit
		Pushes              []wire.Header
		Regions             map[uint32][]switchdp.Region
	}
	run := func() outcome {
		m := newPausingManager()
		srv := m.Server(0)
		var all, kept []memalloc.Demand
		for id := uint32(1); id <= 9; id++ {
			srv.ProcessPacket(acq(id, uint64(id)*10+1)) // holder
			srv.ProcessPacket(acq(id, uint64(id)*10+2)) // waiter
			all = append(all, demand(id, 1e6, 8))
			if id <= 6 {
				kept = append(kept, demand(id, 1e6, 8))
			}
		}
		for round := 0; round < pauseAfterDeferrals; round++ {
			m.Reallocate(all, nil)
		}
		if len(m.pendingMoves) != 9 {
			t.Fatalf("%d moves pending, want 9", len(m.pendingMoves))
		}
		for id := uint32(1); id <= 9; id++ {
			srv.ProcessPacket(acq(id, uint64(id)*10+3)) // buffered by the pause
			if id <= 3 || id >= 7 {
				srv.ProcessPacket(rel(id, uint64(id)*10+1))
				srv.ProcessPacket(rel(id, uint64(id)*10+2))
			}
		}
		rep := m.Reallocate(kept, nil)
		return outcome{rep.Installed, rep.Deferred, rep.Emits, rep.SwitchPushes, m.layout.regions}
	}
	want := run()
	if len(want.Installed) != 3 || len(want.Deferred) < 3 || len(want.Emits) == 0 {
		t.Fatalf("scenario not exercised: %+v", want)
	}
	for i := 1; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("manager %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
