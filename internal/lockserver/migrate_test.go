package lockserver

import (
	"testing"

	"netlock/internal/wire"
)

// Server-to-server migration: export from one server, import into another,
// and verify the importer continues exactly where the exporter stopped —
// no re-granting of waiters, correct grant order as holders release.
func TestServerExportImportPreservesQueueState(t *testing.T) {
	src := newServer()
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 1, wire.Exclusive)), ActGrant)
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 2, wire.Shared)))
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 3, wire.Shared)))
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 4, wire.Exclusive)))

	ex, err := src.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if n := len(ex.Banks[0]); n != 4 {
		t.Fatalf("exported %d entries, want 4", n)
	}
	// The exporter no longer owns the lock: requests bounce to the switch.
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 5, wire.Shared)), ActPush)

	dst := newServer()
	emits, err := dst.CtrlImportLock(ex)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(emits) != 0 {
		t.Fatalf("import with empty q2 emitted %v", emits)
	}
	// Still held exclusively: shared arrival waits.
	wantActions(t, do(t, dst, req(wire.OpAcquire, 1, 6, wire.Shared)))
	// Releasing the migrated holder grants the migrated shared run plus
	// the post-import arrival — but not the exclusive behind them.
	emits = do(t, dst, req(wire.OpRelease, 1, 1, wire.Exclusive))
	wantActions(t, emits, ActGrant, ActGrant)
	if emits[0].Hdr.TxnID != 2 || emits[1].Hdr.TxnID != 3 {
		t.Fatalf("run grants = %v, %v", emits[0].Hdr, emits[1].Hdr)
	}
	do(t, dst, req(wire.OpRelease, 1, 2, wire.Shared))
	emits = do(t, dst, req(wire.OpRelease, 1, 3, wire.Shared))
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 4 {
		t.Fatalf("exclusive grant = %v", emits[0].Hdr)
	}
	emits = do(t, dst, req(wire.OpRelease, 1, 4, wire.Exclusive))
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 6 {
		t.Fatalf("tail grant = %v", emits[0].Hdr)
	}
}

// Exporting a never-contacted lock hands it to the switch: the server must
// record that it does not own the lock, or a later acquire would adopt it
// on first contact and two parties would grant the same lock.
func TestColdExportRecordsNonOwnership(t *testing.T) {
	s := newServer()
	ex, err := s.CtrlExportLock(7)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	for b, bank := range ex.Banks {
		if len(bank) != 0 {
			t.Fatalf("cold export bank %d = %v, want empty", b, bank)
		}
	}
	wantActions(t, do(t, s, req(wire.OpAcquire, 7, 1, wire.Exclusive)), ActPush)
	if s.CtrlOwns(7) {
		t.Fatalf("server owns lock 7 after exporting it")
	}
}

// A duplicate of an already-imported request (a retransmit that raced the
// move) must not enqueue a ghost entry, and a granted duplicate re-emits
// its grant.
func TestImportThenDuplicateAcquire(t *testing.T) {
	src := newServer()
	do(t, src, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	do(t, src, req(wire.OpAcquire, 1, 2, wire.Shared))
	ex, err := src.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	dst := newServer()
	if _, err := dst.CtrlImportLock(ex); err != nil {
		t.Fatalf("import: %v", err)
	}
	wantActions(t, do(t, dst, req(wire.OpAcquire, 1, 1, wire.Exclusive)), ActGrant) // granted dup re-grants
	wantActions(t, do(t, dst, req(wire.OpAcquire, 1, 2, wire.Shared)))              // waiting dup drops
	if st := dst.Stats(); st.DupAcquires != 2 {
		t.Fatalf("DupAcquires = %d, want 2", st.DupAcquires)
	}
	// The release protocol stays aligned: exactly one grant for txn 2.
	emits := do(t, dst, req(wire.OpRelease, 1, 1, wire.Exclusive))
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 2 {
		t.Fatalf("grant = %v", emits[0].Hdr)
	}
}

// Overflow-buffered requests (q2) that accumulated while the lock was
// switch-resident replay after the imported queue, in order, deduplicated.
func TestImportReplaysBufferedOverflow(t *testing.T) {
	// Demotion scenario: the destination server was buffering overflow for
	// the switch-resident lock; the switch's exported state then arrives.
	dst := newServer()
	ovf := req(wire.OpAcquire, 1, 10, wire.Shared)
	ovf.Flags = wire.FlagOverflow | wire.FlagBounced
	wantActions(t, do(t, dst, ovf)) // buffered in q2
	// txn 2 is both in the switch export AND still in q2 (raced its own
	// migration): the replay must drop it.
	ovf2 := req(wire.OpAcquire, 1, 2, wire.Shared)
	ovf2.Flags = wire.FlagOverflow | wire.FlagBounced
	wantActions(t, do(t, dst, ovf2))

	src := newServer()
	do(t, src, req(wire.OpAcquire, 1, 1, wire.Shared)) // granted
	do(t, src, req(wire.OpAcquire, 1, 2, wire.Shared)) // granted (shared run)
	ex, err := src.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	emits, err := dst.CtrlImportLock(ex)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	// The q2 replay grants txn 10 (shared joins the shared holders); the
	// duplicate txn 2 is answered with a re-grant (idempotent: the entry
	// already exists as granted) rather than enqueued a second time.
	wantActions(t, emits, ActGrant, ActGrant)
	if emits[0].Hdr.TxnID != 10 || emits[1].Hdr.TxnID != 2 {
		t.Fatalf("replay grants = %v, %v", emits[0].Hdr, emits[1].Hdr)
	}
	if st := dst.Stats(); st.DupAcquires != 1 {
		t.Fatalf("DupAcquires = %d, want 1", st.DupAcquires)
	}
	// No ghost entry: releasing 1, 2 and 10 fully drains the lock.
	do(t, dst, req(wire.OpRelease, 1, 1, wire.Shared))
	do(t, dst, req(wire.OpRelease, 1, 2, wire.Shared))
	do(t, dst, req(wire.OpRelease, 1, 10, wire.Shared))
	if owned, buffered := dst.CtrlQueueDepth(1); owned != 0 || buffered != 0 {
		t.Fatalf("residual queue depth (%d, %d)", owned, buffered)
	}
}

// Draining mode: requests for locks the server does not own come back as
// moved redirects; owned locks keep working until they are exported.
func TestDrainingRejectsWithMoved(t *testing.T) {
	s := newServer()
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive)), ActGrant)
	s.CtrlSetDraining(true)
	// Owned lock: still served.
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 2, wire.Shared)))
	// Unknown lock: moved reject, and no lockObj is adopted.
	emits := do(t, s, req(wire.OpAcquire, 2, 3, wire.Shared))
	wantActions(t, emits, ActReject)
	if emits[0].Hdr.Op != wire.OpReject || emits[0].Hdr.Flags&wire.FlagMoved == 0 {
		t.Fatalf("reject = %v, want OpReject+FlagMoved", emits[0].Hdr)
	}
	if _, ok := s.locks[2]; ok {
		t.Fatalf("draining server adopted lock 2")
	}
	// Overflow-marked requests are also redirected, not buffered.
	ovf := req(wire.OpAcquire, 3, 4, wire.Shared)
	ovf.Flags = wire.FlagOverflow
	emits = do(t, s, ovf)
	wantActions(t, emits, ActReject)
	if emits[0].Hdr.Flags&wire.FlagMoved == 0 {
		t.Fatalf("overflow reject lacks FlagMoved: %v", emits[0].Hdr)
	}
	if s.Stats().MovedRejects != 2 {
		t.Fatalf("MovedRejects = %d, want 2", s.Stats().MovedRejects)
	}
	// After exporting the owned lock, its requests are redirected too.
	if _, err := s.CtrlExportLock(1); err != nil {
		t.Fatalf("export: %v", err)
	}
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 5, wire.Shared)), ActReject)
}

// Drain residue: q2 of a switch-resident lock moves to the drain target
// and push-notify finds it there.
func TestOverflowExportImport(t *testing.T) {
	old := newServer()
	ovf := req(wire.OpAcquire, 1, 1, wire.Shared)
	ovf.Flags = wire.FlagOverflow | wire.FlagBounced
	do(t, old, ovf)
	banks := old.CtrlExportOverflow(1)
	if banks == nil {
		t.Fatalf("no overflow exported")
	}
	if again := old.CtrlExportOverflow(1); again != nil {
		t.Fatalf("second export returned state: %v", again)
	}
	tgt := newServer()
	tgt.CtrlImportOverflow(1, banks)
	// Push-notify on the target pushes the migrated entry.
	notify := req(wire.OpPushNotify, 1, 0, wire.Shared)
	notify.LeaseNs = 4 // free slots
	emits := do(t, tgt, notify)
	wantActions(t, emits, ActPush)
	if emits[0].Hdr.TxnID != 1 {
		t.Fatalf("pushed = %v", emits[0].Hdr)
	}
}
