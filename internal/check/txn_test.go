package check

import (
	"strings"
	"testing"
)

// feedTxn plays a trace into a fresh TxnChecker (wrapping a safety-only
// per-lock Checker, priority checking off) and returns the first
// violation plus the checker for further assertions.
func feedTxn(t *testing.T, order bool, trace []Event) (*Violation, *TxnChecker) {
	t.Helper()
	inner := NewChecker()
	inner.CheckPriority = false
	tc := NewTxnChecker(inner)
	tc.CheckOrder = order
	for _, e := range trace {
		if v := tc.Observe(e); v != nil {
			return v, tc
		}
	}
	return nil, tc
}

func acq(lock uint32, txn uint64) Event {
	return Event{Kind: EvAcquire, Lock: lock, Txn: txn, Excl: true}
}
func gnt(lock uint32, txn uint64) Event {
	return Event{Kind: EvGrant, Lock: lock, Txn: txn, Excl: true}
}
func rel(lock uint32, txn uint64) Event {
	return Event{Kind: EvRelease, Lock: lock, Txn: txn, Excl: true}
}

// TestTxnCheckerCleanInterleaving: two multi-lock transactions over
// disjoint locks, interleaved, each growing in order then shrinking —
// the clean 2PL shape must pass and count as completed.
func TestTxnCheckerCleanInterleaving(t *testing.T) {
	trace := []Event{
		acq(1, 100), gnt(1, 100),
		acq(10, 200), gnt(10, 200), // txn 200 interleaves
		acq(2, 100), gnt(2, 100),
		acq(11, 200), gnt(11, 200),
		acq(3, 100), gnt(3, 100),
		rel(3, 100), rel(1, 100), rel(2, 100), // shrink in any order
		rel(10, 200), rel(11, 200),
	}
	v, tc := feedTxn(t, true, trace)
	if v != nil {
		t.Fatalf("clean trace rejected: %v", v)
	}
	if v := tc.Quiesce(); v != nil {
		t.Fatalf("quiesce: %v", v)
	}
	if tc.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", tc.Completed())
	}
}

// TestTxnCheckerMutations proves the checker actually catches each broken
// interleaving — the mutation test the satellite requires.
func TestTxnCheckerMutations(t *testing.T) {
	cases := []struct {
		name  string
		order bool
		trace []Event
		inv   string
	}{
		{
			name:  "acquire after release breaks two-phase",
			order: true,
			trace: []Event{
				acq(1, 7), gnt(1, 7),
				acq(2, 7), gnt(2, 7),
				rel(1, 7),
				acq(3, 7), // growing again after shrinking
			},
			inv: "two-phase",
		},
		{
			name:  "out-of-order acquisition",
			order: true,
			trace: []Event{
				acq(2, 7), gnt(2, 7),
				acq(1, 7), // descending lock order
			},
			inv: "ordered-acquisition",
		},
		{
			name:  "release while an acquire is in flight",
			order: true,
			trace: []Event{
				acq(1, 7), gnt(1, 7),
				acq(2, 7), // still pending
				rel(1, 7), // shrink before the lock set is complete
			},
			inv: "atomic-hold",
		},
		{
			name:  "release of a lock the txn never held",
			order: true,
			trace: []Event{
				acq(1, 7), gnt(1, 7), rel(1, 7),
				{Kind: EvRelease, Lock: 1, Txn: 9, Excl: true},
			},
			inv: "release-holders-only", // caught by the wrapped per-lock checker
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			v, _ := feedTxn(t, tt.order, tt.trace)
			if v == nil {
				t.Fatalf("mutation not caught")
			}
			if v.Invariant != tt.inv {
				t.Fatalf("caught %q, want %q (%v)", v.Invariant, tt.inv, v)
			}
		})
	}
}

// TestTxnCheckerOrderOptional: adversarial 2PL scenarios acquire out of
// order on purpose; with CheckOrder off the same trace must pass.
func TestTxnCheckerOrderOptional(t *testing.T) {
	trace := []Event{
		acq(2, 7), gnt(2, 7),
		acq(1, 7), gnt(1, 7),
		rel(2, 7), rel(1, 7),
	}
	v, tc := feedTxn(t, false, trace)
	if v != nil {
		t.Fatalf("unordered trace rejected with CheckOrder off: %v", v)
	}
	if v := tc.Quiesce(); v != nil {
		t.Fatalf("quiesce: %v", v)
	}
}

// TestTxnCheckerQuiesceCatchesStuckTxn: a transaction that never released
// everything must fail conservation.
func TestTxnCheckerQuiesceCatchesStuckTxn(t *testing.T) {
	v, tc := feedTxn(t, true, []Event{acq(1, 7), gnt(1, 7)})
	if v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
	qv := tc.Quiesce()
	if qv == nil || !strings.Contains(qv.Invariant, "conservation") {
		t.Fatalf("quiesce = %v, want a conservation violation", qv)
	}
}

// TestTxnCheckerLost: a lost grant ends the growing phase but does not
// count as a completed transaction, and quiesce accepts the remainder.
func TestTxnCheckerLost(t *testing.T) {
	trace := []Event{
		acq(1, 7), gnt(1, 7),
		acq(2, 7), gnt(2, 7),
		{Kind: EvLost, Lock: 1, Txn: 7, Excl: true},
		rel(2, 7),
	}
	v, tc := feedTxn(t, true, trace)
	if v != nil {
		t.Fatalf("lost-grant trace rejected: %v", v)
	}
	if v := tc.Quiesce(); v != nil {
		t.Fatalf("quiesce: %v", v)
	}
}
