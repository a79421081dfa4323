package switchdp

import (
	"testing"

	"netlock/internal/wire"
)

// Export must capture the full queue state (granted prefix + waiters,
// modes, txn IDs) and evict the lock; importing it into a fresh switch must
// reproduce the exporter's behavior exactly: same grant decisions on new
// arrivals, same grant sequence as releases drain the queue.
func TestExportImportPreservesQueueState(t *testing.T) {
	src := New(Config{MaxLocks: 8, TotalSlots: 64, Priorities: 2})
	installed(t, src, 1, 8)

	// Build a contended mix: an exclusive holder in bank 0, shared waiters
	// in bank 1, and an exclusive waiter in bank 0.
	enq := func(txn uint64, mode wire.Mode, prio uint8) {
		h := req(wire.OpAcquire, 1, txn, mode)
		h.Priority = prio
		do(t, src, h)
	}
	enq(101, wire.Exclusive, 0) // granted
	enq(102, wire.Shared, 1)    // waits, bank 1
	enq(103, wire.Shared, 1)    // waits, bank 1
	enq(104, wire.Exclusive, 0) // waits, bank 0
	enq(105, wire.Shared, 1)    // waits, bank 1

	ex, err := src.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if src.CtrlHasLock(1) {
		t.Fatalf("lock still resident after export")
	}
	if n0, n1 := len(ex.Banks[0]), len(ex.Banks[1]); n0 != 2 || n1 != 3 {
		t.Fatalf("exported %d+%d entries, want 2+3", n0, n1)
	}
	// Granted entries form a prefix; exactly one granted (the exclusive).
	granted := 0
	for _, bank := range ex.Banks {
		prefix := true
		for _, s := range bank {
			if s.Granted {
				if !prefix {
					t.Fatalf("granted entry after a waiter in export")
				}
				granted++
			} else {
				prefix = false
			}
		}
	}
	if granted != 1 {
		t.Fatalf("exported %d granted entries, want 1", granted)
	}

	// After eviction, requests take the not-resident forward path.
	wantActions(t, do(t, src, req(wire.OpAcquire, 1, 106, wire.Shared)), ActForward)

	dst := New(Config{MaxLocks: 8, TotalSlots: 64, Priorities: 2})
	if err := dst.CtrlImportLock([]Region{{Left: 0, Right: 8}, {Left: 0, Right: 8}}, ex); err != nil {
		t.Fatalf("import: %v", err)
	}
	st, err := dst.CtrlLockState(1)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if st.Held != 1 || !st.HeldExcl {
		t.Fatalf("imported hold = (%d, excl=%v), want (1, true)", st.Held, st.HeldExcl)
	}

	// A shared arrival must NOT be granted (exclusive holder + waiters) —
	// if import replayed entries through the grant logic instead of
	// installing them literally, this is where it would double-grant.
	sh := req(wire.OpAcquire, 1, 200, wire.Shared)
	sh.Priority = 1
	if emits := do(t, dst, sh); len(emits) != 0 {
		t.Fatalf("shared arrival behind exclusive holder emitted %v", emits)
	}

	// Release the migrated holder: the grant walk must pick the bank-0
	// exclusive waiter (priority order), not the earlier bank-1 shareds.
	rel := req(wire.OpRelease, 1, 101, wire.Exclusive)
	emits := do(t, dst, rel)
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 104 {
		t.Fatalf("grant walk granted txn %d, want 104", emits[0].Hdr.TxnID)
	}
	// Release 104 (bank 0): the bank-1 shared run 102, 103, 105, 200 follows.
	rel = req(wire.OpRelease, 1, 104, wire.Exclusive)
	rel.Priority = 0
	emits = do(t, dst, rel)
	wantActions(t, emits, ActGrant, ActGrant, ActGrant, ActGrant)
	want := []uint64{102, 103, 105, 200}
	for i, w := range want {
		if emits[i].Hdr.TxnID != w {
			t.Fatalf("shared run grant %d = txn %d, want %d", i, emits[i].Hdr.TxnID, w)
		}
	}
}

// Import must reject state that does not fit the assigned regions.
func TestImportRejectsOversizedState(t *testing.T) {
	src := New(Config{MaxLocks: 8, TotalSlots: 64, Priorities: 1})
	installed(t, src, 1, 8)
	for txn := uint64(1); txn <= 5; txn++ {
		do(t, src, req(wire.OpAcquire, 1, txn, wire.Exclusive))
	}
	ex, err := src.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	dst := New(Config{MaxLocks: 8, TotalSlots: 64, Priorities: 1})
	small := []Region{{Left: 0, Right: 2}}
	if err := dst.CtrlImportLock(small, ex); err == nil {
		t.Fatalf("import of 5 entries into 2 slots accepted")
	}
	if dst.CtrlHasLock(1) {
		t.Fatalf("failed import left the lock installed")
	}
}

// Export of an idle (fully drained) lock must round trip too, and the
// freed table entry must be reusable.
func TestExportIdleLockAndReuse(t *testing.T) {
	sw := New(Config{MaxLocks: 2, TotalSlots: 16, Priorities: 1})
	installed(t, sw, 1, 4)
	do(t, sw, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	do(t, sw, req(wire.OpRelease, 1, 1, wire.Exclusive))
	ex, err := sw.CtrlExportLock(1)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if n := len(ex.Banks[0]); n != 0 {
		t.Fatalf("drained lock exported %d entries", n)
	}
	// The freed entry is reusable immediately.
	installed(t, sw, 2, 4)
	if err := sw.CtrlImportLock([]Region{{Left: 0, Right: 4}}, ex); err != nil {
		t.Fatalf("re-import: %v", err)
	}
	wantActions(t, do(t, sw, req(wire.OpAcquire, 1, 9, wire.Shared)), ActGrant)
}
