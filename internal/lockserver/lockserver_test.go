package lockserver

import (
	"net/netip"
	"sort"
	"testing"

	"netlock/internal/wire"
)

func newServer() *Server {
	return New(Config{Priorities: 1})
}

func req(op wire.Op, lockID uint32, txn uint64, mode wire.Mode) *wire.Header {
	return &wire.Header{
		Op:       op,
		Mode:     mode,
		LockID:   lockID,
		TxnID:    txn,
		ClientIP: netip.AddrFrom4([4]byte{10, 0, 0, byte(txn)}),
	}
}

func do(t testing.TB, s *Server, h *wire.Header) []Emit {
	t.Helper()
	emits := s.ProcessPacket(h)
	out := make([]Emit, len(emits))
	copy(out, emits)
	return out
}

func wantActions(t *testing.T, emits []Emit, want ...Action) {
	t.Helper()
	if len(emits) != len(want) {
		t.Fatalf("emits = %v, want %v", emits, want)
	}
	for i := range want {
		if emits[i].Action != want[i] {
			t.Fatalf("emit %d = %v, want %v", i, emits[i].Action, want[i])
		}
	}
}

func TestOwnedExclusiveGrantQueueRelease(t *testing.T) {
	s := newServer()
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive)), ActGrant)
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 2, wire.Exclusive))) // queues
	emits := do(t, s, req(wire.OpRelease, 1, 1, wire.Exclusive))
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 2 {
		t.Fatalf("grant = %v", emits[0].Hdr)
	}
	do(t, s, req(wire.OpRelease, 1, 2, wire.Exclusive))
	st := s.Stats()
	if st.GrantsImmediate != 1 || st.GrantsQueued != 1 || st.Queued != 1 || st.Releases != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOwnedSharedRun(t *testing.T) {
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	for txn := uint64(2); txn <= 4; txn++ {
		wantActions(t, do(t, s, req(wire.OpAcquire, 1, txn, wire.Shared)))
	}
	do(t, s, req(wire.OpAcquire, 1, 5, wire.Exclusive))
	emits := do(t, s, req(wire.OpRelease, 1, 1, wire.Exclusive))
	wantActions(t, emits, ActGrant, ActGrant, ActGrant)
	for i, txn := range []uint64{2, 3, 4} {
		if emits[i].Hdr.TxnID != txn {
			t.Fatalf("run grant %d = %v", i, emits[i].Hdr)
		}
	}
	// Releasing all three shared grants hands the lock to the exclusive.
	do(t, s, req(wire.OpRelease, 1, 2, wire.Shared))
	do(t, s, req(wire.OpRelease, 1, 3, wire.Shared))
	emits = do(t, s, req(wire.OpRelease, 1, 4, wire.Shared))
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 5 {
		t.Fatalf("final grant = %v", emits[0].Hdr)
	}
}

func TestOwnedSharedConcurrentAndFCFS(t *testing.T) {
	s := newServer()
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 1, wire.Shared)), ActGrant)
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 2, wire.Shared)), ActGrant)
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 3, wire.Exclusive))) // waits
	// A later shared request must not jump the exclusive one.
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 4, wire.Shared)))
}

func TestReleaseUnknownLockIgnored(t *testing.T) {
	s := newServer()
	wantActions(t, do(t, s, req(wire.OpRelease, 42, 1, wire.Exclusive)))
}

func TestPriorityGrantOrder(t *testing.T) {
	s := New(Config{Priorities: 2})
	lo := func(txn uint64, mode wire.Mode) *wire.Header {
		h := req(wire.OpAcquire, 1, txn, mode)
		h.Priority = 1
		return h
	}
	hi := func(txn uint64, mode wire.Mode) *wire.Header {
		h := req(wire.OpAcquire, 1, txn, mode)
		h.Priority = 0
		return h
	}
	wantActions(t, do(t, s, lo(1, wire.Exclusive)), ActGrant)
	wantActions(t, do(t, s, lo(2, wire.Exclusive)))
	wantActions(t, do(t, s, hi(3, wire.Exclusive)))
	rel := req(wire.OpRelease, 1, 1, wire.Exclusive)
	rel.Priority = 1
	emits := do(t, s, rel)
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 3 {
		t.Fatalf("high priority should win: %v", emits[0].Hdr)
	}
}

func TestOneRTTFetch(t *testing.T) {
	s := newServer()
	h := req(wire.OpAcquire, 1, 1, wire.Exclusive)
	h.Flags = wire.FlagOneRTT
	emits := do(t, s, h)
	wantActions(t, emits, ActFetch)
	if emits[0].Hdr.Op != wire.OpFetch {
		t.Fatalf("one-RTT emit = %v", emits[0].Hdr)
	}
}

func TestOverflowBufferingProtocol(t *testing.T) {
	s := newServer()
	// Make the lock switch-resident from this server's perspective.
	if err := s.CtrlReleaseOwnership(7); err != nil {
		t.Fatal(err)
	}
	// First overflow-marked request: bounced once (clear race defense).
	m1 := req(wire.OpAcquire, 7, 1, wire.Exclusive)
	m1.Flags = wire.FlagOverflow
	emits := do(t, s, m1)
	wantActions(t, emits, ActPush)
	if emits[0].Hdr.Op != wire.OpPush || emits[0].Hdr.Flags&wire.FlagBounced == 0 {
		t.Fatalf("bounce emit wrong: %v", emits[0].Hdr)
	}
	// It comes back marked and bounced: now it is buffered.
	m1b := req(wire.OpAcquire, 7, 1, wire.Exclusive)
	m1b.Flags = wire.FlagOverflow | wire.FlagBounced
	wantActions(t, do(t, s, m1b))
	// Subsequent marked requests buffer directly.
	m2 := req(wire.OpAcquire, 7, 2, wire.Exclusive)
	m2.Flags = wire.FlagOverflow
	wantActions(t, do(t, s, m2))
	if _, buf := s.CtrlQueueDepth(7); buf != 2 {
		t.Fatalf("buffered = %d, want 2", buf)
	}
	// The switch drains and advertises 4 free slots: both entries are
	// pushed, the last one final (q2 drained, q1 not full).
	n := req(wire.OpPushNotify, 7, 0, wire.Shared)
	n.LeaseNs = 4
	emits = do(t, s, n)
	wantActions(t, emits, ActPush, ActPush)
	if emits[0].Hdr.TxnID != 1 || emits[1].Hdr.TxnID != 2 {
		t.Fatalf("push order wrong: %v", emits)
	}
	if emits[0].Hdr.Flags&wire.FlagOverflow != 0 {
		t.Fatalf("first push must not be final")
	}
	if emits[1].Hdr.Flags&wire.FlagOverflow == 0 {
		t.Fatalf("last push must be final")
	}
	st := s.Stats()
	if st.Buffered != 2 || st.Pushed != 2 || st.Bounced != 1 || st.OvfClears != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPushNotifyPartialDrain(t *testing.T) {
	s := newServer()
	s.CtrlReleaseOwnership(7)
	for txn := uint64(1); txn <= 3; txn++ {
		m := req(wire.OpAcquire, 7, txn, wire.Exclusive)
		m.Flags = wire.FlagOverflow | wire.FlagBounced
		do(t, s, m)
	}
	// Only 2 free slots: push 2, overflow mode stays.
	n := req(wire.OpPushNotify, 7, 0, wire.Shared)
	n.LeaseNs = 2
	emits := do(t, s, n)
	wantActions(t, emits, ActPush, ActPush)
	for _, e := range emits {
		if e.Hdr.Flags&wire.FlagOverflow != 0 {
			t.Fatalf("partial drain must not clear overflow: %v", e.Hdr)
		}
	}
	if _, buf := s.CtrlQueueDepth(7); buf != 1 {
		t.Fatalf("q2 should retain 1 entry, has %d", buf)
	}
	// Exactly-full push (n == free) must not clear either.
	n2 := req(wire.OpPushNotify, 7, 0, wire.Shared)
	n2.LeaseNs = 1
	emits = do(t, s, n2)
	wantActions(t, emits, ActPush)
	if emits[0].Hdr.Flags&wire.FlagOverflow != 0 {
		t.Fatalf("push filling q1 exactly must not clear overflow")
	}
}

func TestPushNotifyEmptyBufferSendsClear(t *testing.T) {
	s := newServer()
	s.CtrlReleaseOwnership(7)
	// Enter buffering mode then drain it via adoption-free path: buffer
	// one and push it with free=2 (clears). Then a second notify with an
	// empty q2 must emit the pure clear control message.
	m := req(wire.OpAcquire, 7, 1, wire.Exclusive)
	m.Flags = wire.FlagOverflow | wire.FlagBounced
	do(t, s, m)
	n := req(wire.OpPushNotify, 7, 0, wire.Shared)
	n.LeaseNs = 2
	do(t, s, n)
	emits := do(t, s, n)
	wantActions(t, emits, ActPush)
	if emits[0].Hdr.TxnID != wire.TxnNone || emits[0].Hdr.Flags&wire.FlagOverflow == 0 {
		t.Fatalf("expected pure clear message: %v", emits[0].Hdr)
	}
}

func TestPushNotifyForOwnedLockIgnored(t *testing.T) {
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	n := req(wire.OpPushNotify, 1, 0, wire.Shared)
	n.LeaseNs = 4
	wantActions(t, do(t, s, n))
}

func TestMarkedRequestForOwnedLockProcessed(t *testing.T) {
	// A stale overflow mark on a request for a lock this server owns again
	// (the packet raced a switch-to-server move) is processed as a normal
	// acquire rather than stranded. The server must already know the lock:
	// on first contact the mark is trusted instead (see
	// TestOverflowFirstContactDoesNotAdoptOwnership).
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	do(t, s, req(wire.OpRelease, 1, 1, wire.Exclusive))
	m := req(wire.OpAcquire, 1, 2, wire.Exclusive)
	m.Flags = wire.FlagOverflow
	emits := do(t, s, m)
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 2 {
		t.Fatalf("granted %v, want txn 2", emits[0].Hdr)
	}
}

func TestCtrlReleaseOwnershipRequiresDrain(t *testing.T) {
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	if err := s.CtrlReleaseOwnership(1); err == nil {
		t.Fatalf("release of non-drained lock should fail")
	}
	do(t, s, req(wire.OpRelease, 1, 1, wire.Exclusive))
	if err := s.CtrlReleaseOwnership(1); err != nil {
		t.Fatal(err)
	}
	if owned := s.CtrlOwnedLocks(); len(owned) != 0 {
		t.Fatalf("owned locks = %v", owned)
	}
	// The owned list is ascending whatever the map order: drains and
	// failovers walk it and emit in its order.
	for id := uint32(40); id >= 2; id-- {
		do(t, s, req(wire.OpAcquire, id, 1, wire.Exclusive))
	}
	owned := s.CtrlOwnedLocks()
	if len(owned) != 39 || !sort.SliceIsSorted(owned, func(i, j int) bool { return owned[i] < owned[j] }) {
		t.Fatalf("owned locks = %v, want 2..40 ascending", owned)
	}
}

func TestCtrlAdoptLockProcessesBuffered(t *testing.T) {
	s := newServer()
	s.CtrlReleaseOwnership(7)
	for txn := uint64(1); txn <= 2; txn++ {
		m := req(wire.OpAcquire, 7, txn, wire.Exclusive)
		m.Flags = wire.FlagOverflow | wire.FlagBounced
		do(t, s, m)
	}
	emits := s.CtrlAdoptLock(7)
	// First buffered request is granted; second queues.
	wantActions(t, emits, ActGrant)
	if emits[0].Hdr.TxnID != 1 {
		t.Fatalf("adopted grant = %v", emits[0].Hdr)
	}
	if owned, buf := s.CtrlQueueDepth(7); owned != 2 || buf != 0 {
		t.Fatalf("depths after adopt: owned=%d buf=%d", owned, buf)
	}
	// Adopting an owned lock is a no-op.
	if emits := s.CtrlAdoptLock(7); emits != nil {
		t.Fatalf("re-adopt emitted %v", emits)
	}
}

func TestCtrlMeasure(t *testing.T) {
	s := newServer()
	for txn := uint64(1); txn <= 3; txn++ {
		do(t, s, req(wire.OpAcquire, 1, txn, wire.Exclusive))
	}
	loads := s.CtrlMeasure()
	if len(loads) != 1 || loads[0].Requests != 3 || loads[0].MaxConcurrent != 3 || !loads[0].Owned {
		t.Fatalf("loads = %+v", loads)
	}
	// Window reset: requests zeroed, peak re-primed with current depth.
	loads = s.CtrlMeasure()
	if loads[0].Requests != 0 || loads[0].MaxConcurrent != 3 {
		t.Fatalf("second window = %+v", loads)
	}
}

func TestCtrlScanExpired(t *testing.T) {
	now := int64(0)
	s := New(Config{Priorities: 1, DefaultLeaseNs: 100, Now: func() int64 { return now }})
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	do(t, s, req(wire.OpAcquire, 1, 2, wire.Exclusive))
	// Holder's lease expires; the waiter is granted by the sweep — and its
	// own lease (stamped at acquire time 0, expiring at 100) is already
	// past at t=150, so the same sweep chains and releases it too. Each
	// forced release is announced with an ActExpired emit.
	emits := s.CtrlScanExpired(150)
	wantActions(t, emits, ActExpired, ActGrant, ActExpired)
	if emits[0].Hdr.TxnID != 1 || emits[1].Hdr.TxnID != 2 || emits[2].Hdr.TxnID != 2 {
		t.Fatalf("sweep emits = %v", emits)
	}
	if s.Stats().ExpiredReleases != 2 {
		t.Fatalf("expired releases = %d, want 2 (chained)", s.Stats().ExpiredReleases)
	}
	if owned, _ := s.CtrlQueueDepth(1); owned != 0 {
		t.Fatalf("queue depth after sweep = %d", owned)
	}
}

func TestCtrlForget(t *testing.T) {
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	s.CtrlForget(1)
	if owned, _ := s.CtrlQueueDepth(1); owned != 0 {
		t.Fatalf("state survived forget")
	}
}

func TestRSSCore(t *testing.T) {
	counts := make([]int, 8)
	for id := uint32(0); id < 8000; id++ {
		c := RSSCore(id, 8)
		if c < 0 || c >= 8 {
			t.Fatalf("core %d out of range", c)
		}
		counts[c]++
	}
	for c, n := range counts {
		if n < 500 || n > 1500 {
			t.Fatalf("core %d load %d badly skewed: %v", c, n, counts)
		}
	}
	// Deterministic.
	if RSSCore(42, 8) != RSSCore(42, 8) {
		t.Fatalf("RSS not deterministic")
	}
}

func TestRSSCorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	RSSCore(1, 0)
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(Config{Priorities: 0})
}

func TestActionString(t *testing.T) {
	for _, a := range []Action{ActGrant, ActFetch, ActPush} {
		if a.String() == "" {
			t.Fatalf("empty action name")
		}
	}
	if Action(42).String() != "action(42)" {
		t.Fatalf("unknown action string")
	}
}

func TestDuplicateAcquireDedup(t *testing.T) {
	s := New(Config{Priorities: 1})
	// Granted holder: a duplicate acquire re-emits the grant instead of
	// enqueuing a ghost entry (a release dequeues one head per call, so a
	// ghost would desynchronize grants from releases).
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 10, wire.Exclusive)), ActGrant)
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 10, wire.Exclusive)), ActGrant)
	// Waiting entry: a duplicate is dropped silently.
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 11, wire.Exclusive)))
	wantActions(t, do(t, s, req(wire.OpAcquire, 1, 11, wire.Exclusive)))
	if got := s.Stats().DupAcquires; got != 2 {
		t.Fatalf("DupAcquires = %d, want 2", got)
	}
	// Exactly one release per real request drains the lock completely.
	wantActions(t, do(t, s, req(wire.OpRelease, 1, 10, wire.Exclusive)), ActGrant)
	wantActions(t, do(t, s, req(wire.OpRelease, 1, 11, wire.Exclusive)))
	if h, _ := s.CtrlQueueDepth(1); h != 0 {
		t.Fatalf("queue should be empty after paired releases: %d", h)
	}
	// Overflow path: a retransmitted marked request must not double-buffer.
	s.CtrlReleaseOwnership(7)
	m := req(wire.OpAcquire, 7, 20, wire.Exclusive)
	m.Flags = wire.FlagOverflow | wire.FlagBounced
	do(t, s, m)
	do(t, s, m)
	if _, buf := s.CtrlQueueDepth(7); buf != 1 {
		t.Fatalf("duplicate overflow mark buffered twice: %d", buf)
	}
}

func TestPriorityBufferingSeparateBanks(t *testing.T) {
	// q2 is per (lock, priority): overflow at one priority must not mix
	// with another's buffer.
	s := New(Config{Priorities: 2})
	s.CtrlReleaseOwnership(7)
	for i, prio := range []uint8{0, 1, 1} {
		m := req(wire.OpAcquire, 7, uint64(i)+1, wire.Exclusive)
		m.Flags = wire.FlagOverflow | wire.FlagBounced
		m.Priority = prio
		do(t, s, m)
	}
	// Notify for priority 1 pushes only that bank's entries.
	n := req(wire.OpPushNotify, 7, 0, wire.Shared)
	n.Priority = 1
	n.LeaseNs = 4
	emits := do(t, s, n)
	wantActions(t, emits, ActPush, ActPush)
	for _, e := range emits {
		if e.Hdr.Priority != 1 {
			t.Fatalf("push crossed priority banks: %v", e.Hdr)
		}
	}
	if _, buf := s.CtrlQueueDepth(7); buf != 1 {
		t.Fatalf("priority-0 buffer should remain: %d", buf)
	}
}

func TestScanExpiredSharedRun(t *testing.T) {
	// An expired shared holder among several: the sweep releases only
	// expired heads and grants what becomes available.
	now := int64(0)
	clock := func() int64 { return now }
	s := New(Config{Priorities: 1, DefaultLeaseNs: 100, Now: clock})
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Shared))
	now = 50
	do(t, s, req(wire.OpAcquire, 1, 2, wire.Shared))
	do(t, s, req(wire.OpAcquire, 1, 3, wire.Exclusive)) // waits
	// At t=120, only txn 1's lease (expiring at 100) is past; txn 2
	// (expiring at 150) still holds, so the exclusive must keep waiting:
	// the sweep announces the forced release and grants nothing.
	emits := s.CtrlScanExpired(120)
	wantActions(t, emits, ActExpired)
	if emits[0].Hdr.TxnID != 1 {
		t.Fatalf("expired the wrong holder: %v", emits)
	}
	// At t=200, txn 2 expires too and the exclusive is granted — and the
	// exclusive's own lease (stamped at its t=50 arrival, expiring at 150)
	// is already past, so the sweep chains and releases it as well.
	emits = s.CtrlScanExpired(200)
	wantActions(t, emits, ActExpired, ActGrant, ActExpired)
	if emits[0].Hdr.TxnID != 2 || emits[1].Hdr.TxnID != 3 || emits[2].Hdr.TxnID != 3 {
		t.Fatalf("exclusive not granted after full expiry: %v", emits)
	}
}

func TestMeasurementSkipsMovedLocks(t *testing.T) {
	s := newServer()
	do(t, s, req(wire.OpAcquire, 1, 1, wire.Exclusive))
	do(t, s, req(wire.OpRelease, 1, 1, wire.Exclusive))
	s.CtrlReleaseOwnership(1)
	loads := s.CtrlMeasure()
	for _, l := range loads {
		if l.LockID == 1 && l.Owned {
			t.Fatalf("moved lock still reported owned")
		}
	}
}

// TestOverflowFirstContactDoesNotAdoptOwnership is the regression test for a
// failover split-brain the internal/check chaos harness found: a replacement
// server whose first packet for a lock is overflow-marked used to auto-create
// the lock as server-owned and grant it — while the switch still held granted
// requests for it in q1 (duplicate grants, shared/exclusive co-grants). An
// overflow mark is authoritative evidence the switch owns the lock, so first
// contact must leave the lock un-owned: bounce once, then buffer.
func TestOverflowFirstContactDoesNotAdoptOwnership(t *testing.T) {
	s := newServer()
	h := req(wire.OpAcquire, 9, 1, wire.Exclusive)
	h.Flags = wire.FlagOverflow
	emits := do(t, s, h)
	wantActions(t, emits, ActPush) // bounced, never granted
	if emits[0].Hdr.Op != wire.OpPush || emits[0].Hdr.Flags&wire.FlagBounced == 0 {
		t.Fatalf("bounce emit = %+v, want OpPush with FlagBounced", emits[0].Hdr)
	}
	if got := s.CtrlOwnedLocks(); len(got) != 0 {
		t.Fatalf("server adopted ownership of %v from an overflow packet", got)
	}
	// The bounced copy comes back still overflow-marked: buffer it in q2.
	h2 := req(wire.OpAcquire, 9, 1, wire.Exclusive)
	h2.Flags = wire.FlagOverflow | wire.FlagBounced
	wantActions(t, do(t, s, h2)) // no emits: buffered
	if owned, buffered := s.CtrlQueueDepth(9); owned != 0 || buffered != 1 {
		t.Fatalf("queue depth = (owned=%d, buffered=%d), want (0, 1)", owned, buffered)
	}
}
