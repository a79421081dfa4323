package core

// Chaos verification: drive the full manager stack — switch data plane,
// lock servers, the q1/q2 overflow handoff, placement rounds (Reallocate),
// live moves of busy and idle locks, compaction, lease sweeps, and
// switch/server failures — with seeded random
// workloads, feeding every observable (request, action) pair to the
// internal/check safety checker. Strict lockstep does not hold here
// (overflow buffering reorders grants relative to the sequential model and
// failures destroy requests), so the checker runs in safety-only mode with
// the priority invariant off (overflow-buffered exclusives are invisible to
// the switch's nexcl counters), and liveness is verified by draining the
// whole system to quiescence and checking conservation.

import (
	"fmt"
	"sort"
	"testing"

	"netlock/internal/check"
	"netlock/internal/lockserver"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// chaosLease is the lease on the harness's virtual clock; sweeps advance
// the clock so that long-held grants expire mid-run.
const chaosLease = int64(5_000_000)

// chaosReq is the harness's record of one outstanding request.
type chaosReq struct {
	lock    uint32
	prio    uint8 // clamped to a bank index
	excl    bool
	granted bool
}

type chaos struct {
	t     *testing.T
	seed  int64
	prios int
	mgr   *Manager
	ck    *check.Checker
	now   int64

	reqs    map[uint64]*chaosReq
	holders map[check.LockPrio][]uint64 // granted, unreleased txns in grant order
	lost    map[uint64]bool
	stale   int // grants/releases for lost transactions (clients long gone)
	// busyMoves counts live moves that carried queued requests.
	busyMoves int

	// trace keeps the most recent events for violation reports.
	trace []string
}

func (c *chaos) tracef(format string, args ...any) {
	if len(c.trace) >= 300 {
		c.trace = c.trace[1:]
	}
	c.trace = append(c.trace, fmt.Sprintf(format, args...))
}

func newChaos(t *testing.T, seed int64, prios int) *chaos {
	c := &chaos{
		t:       t,
		seed:    seed,
		prios:   prios,
		ck:      check.NewChecker(),
		reqs:    make(map[uint64]*chaosReq),
		holders: make(map[check.LockPrio][]uint64),
		lost:    make(map[uint64]bool),
	}
	c.ck.CheckPriority = false
	c.mgr = New(Config{
		Switch: switchdp.Config{
			MaxLocks: 4,
			// Tiny regions: a handful of slots per resident lock per bank,
			// so contention routinely overflows into q2 at the servers.
			TotalSlots:     12 * prios,
			Priorities:     prios,
			DefaultLeaseNs: chaosLease,
			Now:            func() int64 { return c.now },
		},
		Servers: 2,
	})
	return c
}

func (c *chaos) observe(e check.Event) {
	c.t.Helper()
	c.tracef("%v", e)
	if v := c.ck.Observe(e); v != nil {
		for _, l := range c.trace {
			c.t.Log(l)
		}
		c.t.Fatalf("%v\nreproduce with: go test -run %s -netlock.seed=%d", v, c.t.Name(), c.seed)
	}
}

func (c *chaos) bank(p uint8) uint8 {
	if int(p) >= c.prios {
		return uint8(c.prios - 1)
	}
	return p
}

// --- packet routing (the netlock.go settle loop, with grant taps) ---

func (c *chaos) inject(hd *wire.Header) {
	emits, _ := c.mgr.Switch().ProcessPacket(hd)
	pending := append([]switchdp.Emit(nil), emits...)
	for _, e := range pending {
		c.routeSwitch(e)
	}
}

func (c *chaos) routeSwitch(e switchdp.Emit) {
	switch e.Action {
	case switchdp.ActGrant, switchdp.ActFetch:
		c.tracef("  [switch %v txn=%d lock=%d]", e.Action, e.Hdr.TxnID, e.Hdr.LockID)
		c.onGrant(e.Hdr)
	case switchdp.ActReject:
		c.onReject(e.Hdr)
	case switchdp.ActForward, switchdp.ActForwardOverflow, switchdp.ActPushNotify:
		c.tracef("  [switch %v txn=%d lock=%d]", e.Action, e.Hdr.TxnID, e.Hdr.LockID)
		hd := e.Hdr
		srv := c.mgr.Server(c.mgr.ServerFor(hd.LockID))
		c.routeServerEmits(srv.ProcessPacket(&hd))
	}
}

func (c *chaos) routeServerEmits(emits []lockserver.Emit) {
	pending := append([]lockserver.Emit(nil), emits...)
	for _, e := range pending {
		c.routeServer(e)
	}
}

func (c *chaos) routeServer(e lockserver.Emit) {
	c.tracef("  [server %v txn=%d lock=%d]", e.Action, e.Hdr.TxnID, e.Hdr.LockID)
	switch e.Action {
	case lockserver.ActGrant, lockserver.ActFetch:
		c.onGrant(e.Hdr)
	case lockserver.ActExpired:
		c.onExpired(e.Hdr)
	case lockserver.ActPush:
		hd := e.Hdr
		c.inject(&hd)
	}
}

func (c *chaos) onGrant(hd wire.Header) {
	if c.lost[hd.TxnID] {
		// A failure destroyed this request's client; the grant is stale
		// (in the real system the lease sweep reclaims the slot).
		c.stale++
		return
	}
	c.observe(check.Event{Kind: check.EvGrant, Lock: hd.LockID, Txn: hd.TxnID})
	r := c.reqs[hd.TxnID]
	r.granted = true
	key := check.LockPrio{Lock: r.lock, Prio: r.prio}
	c.holders[key] = append(c.holders[key], hd.TxnID)
}

func (c *chaos) onReject(hd wire.Header) {
	c.observe(check.Event{Kind: check.EvReject, Lock: hd.LockID, Txn: hd.TxnID})
	delete(c.reqs, hd.TxnID)
}

// onExpired keeps holder accounting aligned when a server's lease sweep
// force-releases a holder.
func (c *chaos) onExpired(hd wire.Header) {
	r, ok := c.reqs[hd.TxnID]
	if !ok || !r.granted {
		c.stale++ // reclaiming a stale holder we already lost track of
		return
	}
	c.observe(check.Event{Kind: check.EvRelease, Lock: hd.LockID, Txn: hd.TxnID, Excl: r.excl, Prio: r.prio})
	c.removeHolder(r.lock, r.prio, hd.TxnID)
	delete(c.reqs, hd.TxnID)
}

func (c *chaos) removeHolder(lock uint32, prio uint8, txn uint64) {
	key := check.LockPrio{Lock: lock, Prio: prio}
	q := c.holders[key]
	for i, t := range q {
		if t == txn {
			c.holders[key] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// --- driver operations ---

func (c *chaos) acquire(txn uint64, op check.Op) {
	r := &chaosReq{lock: op.Lock, prio: c.bank(op.Prio), excl: op.Excl}
	c.reqs[txn] = r
	c.observe(check.Event{Kind: check.EvAcquire, Lock: op.Lock, Txn: txn, Excl: op.Excl, Prio: op.Prio})
	mode := wire.Shared
	if op.Excl {
		mode = wire.Exclusive
	}
	hd := wire.Header{Op: wire.OpAcquire, Mode: mode, LockID: op.Lock, TxnID: txn, Priority: op.Prio}
	c.inject(&hd)
}

func (c *chaos) releasableKeys() []check.LockPrio {
	var out []check.LockPrio
	for k, q := range c.holders {
		if len(q) > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lock != out[j].Lock {
			return out[i].Lock < out[j].Lock
		}
		return out[i].Prio < out[j].Prio
	})
	return out
}

// release gives back the oldest-granted holder of one (lock, bank). The
// release packet dequeues the bank's head, which for shared runs may be a
// different (commutative) holder; the checker only needs the named
// transaction to actually hold the lock.
func (c *chaos) release(key check.LockPrio) {
	q := c.holders[key]
	txn := q[0]
	c.holders[key] = q[1:]
	r := c.reqs[txn]
	c.observe(check.Event{Kind: check.EvRelease, Lock: key.Lock, Txn: txn, Excl: r.excl, Prio: key.Prio})
	delete(c.reqs, txn)
	mode := wire.Shared
	if r.excl {
		mode = wire.Exclusive
	}
	hd := wire.Header{Op: wire.OpRelease, Mode: mode, LockID: key.Lock, TxnID: txn, Priority: key.Prio}
	c.inject(&hd)
}

// --- control-plane chaos ---

func (c *chaos) placement() {
	_, emits := c.mgr.Reallocate(c.mgr.MeasureDemands(0.001), nil)
	c.routeServerEmits(emits)
}

// liveMove moves one lock to the other side, busy or not: a resident lock
// is demoted to its server, a server-owned lock promoted with a few slots
// per bank (a promotion that does not fit leaves the lock where it is).
func (c *chaos) liveMove(lock uint32) {
	var rep rebalance.Report
	var err error
	if c.mgr.Switch().CtrlHasLock(lock) {
		var emits []lockserver.Emit
		rep, emits, err = c.mgr.MoveToServer(lock)
		c.routeServerEmits(emits)
	} else {
		rep, err = c.mgr.MoveToSwitch(lock, uint64(3*c.prios))
	}
	c.tracef("  [live move lock=%d toSwitch=%v granted=%v waiting=%v err=%v]",
		lock, rep.ToSwitch, rep.Granted, rep.Waiting, err)
	if err == nil && len(rep.Granted)+len(rep.Waiting) > 0 {
		c.busyMoves++
	}
}

func (c *chaos) sweep() {
	rels, emits := c.mgr.SweepLeases(c.now)
	for i := range rels {
		hd := rels[i]
		if r, ok := c.reqs[hd.TxnID]; ok && r.granted && !c.lost[hd.TxnID] {
			c.observe(check.Event{Kind: check.EvRelease, Lock: hd.LockID, Txn: hd.TxnID, Excl: r.excl, Prio: r.prio})
			c.removeHolder(r.lock, r.prio, hd.TxnID)
			delete(c.reqs, hd.TxnID)
		} else {
			c.stale++
		}
		c.inject(&hd)
	}
	c.routeServerEmits(emits)
	for _, hd := range c.mgr.SweepStranded() {
		h2 := hd
		srv := c.mgr.Server(c.mgr.ServerFor(h2.LockID))
		c.routeServerEmits(srv.ProcessPacket(&h2))
	}
}

func (c *chaos) lose(lock uint32, txn uint64) {
	r, ok := c.reqs[txn]
	if !ok {
		return
	}
	c.observe(check.Event{Kind: check.EvLost, Lock: lock, Txn: txn})
	c.lost[txn] = true
	if r.granted {
		c.removeHolder(r.lock, r.prio, txn)
	}
	delete(c.reqs, txn)
}

// failServer kills server 1: everything queued or buffered there dies with
// it (CtrlPending is the exact snapshot), then ownership fails over.
func (c *chaos) failServer() {
	const failed, replacement = 1, 0
	for _, hd := range c.mgr.Server(failed).CtrlPending() {
		c.lose(hd.LockID, hd.TxnID)
	}
	c.mgr.FailServer(failed, replacement)
}

// failSwitch wipes the switch and restarts it: every outstanding request on
// a then-resident lock is destroyed — q1 entries with the registers, and
// q2-buffered entries stranded at the servers (clients would resubmit; the
// harness accounts them as lost).
func (c *chaos) failSwitch() {
	resident := make(map[uint32]bool)
	for _, id := range c.mgr.Switch().CtrlResidentLocks() {
		resident[id] = true
	}
	var doomed []uint64
	for txn, r := range c.reqs {
		if resident[r.lock] {
			doomed = append(doomed, txn)
		}
	}
	sort.Slice(doomed, func(i, j int) bool { return doomed[i] < doomed[j] })
	for _, txn := range doomed {
		c.lose(c.reqs[txn].lock, txn)
	}
	c.mgr.FailSwitch()
	c.mgr.RestartSwitch()
}

// busy reports whether the workload's locks still hold state anywhere the
// drain can reach: switch queues or server-owned queues. (Overflow buffers
// of lost requests may legitimately remain stranded after a failure.)
func (c *chaos) busy(locks int) bool {
	for _, id := range c.mgr.Switch().CtrlResidentLocks() {
		st, err := c.mgr.Switch().CtrlLockState(id)
		if err != nil {
			continue
		}
		if st.Held != 0 {
			return true
		}
		for _, b := range st.Banks {
			if b.Count != 0 {
				return true
			}
		}
	}
	for l := 1; l <= locks; l++ {
		srv := c.mgr.Server(c.mgr.ServerFor(uint32(l)))
		if owned, _ := srv.CtrlQueueDepth(uint32(l)); owned != 0 {
			return true
		}
	}
	return false
}

func runChaos(t *testing.T, seed int64) {
	const prios = 2
	cfg := check.WorkloadCfg{
		Ops:            3000,
		Locks:          3,
		Priorities:     prios,
		PExclusive:     0.4,
		PRelease:       0.45,
		MaxOutstanding: 40,
	}
	ops := check.GenOps(cfg, seed)
	c := newChaos(t, seed, prios)

	var txn uint64
	for i, op := range ops {
		c.now += 1000
		switch i {
		case len(ops) / 3:
			c.failServer()
		case 2 * len(ops) / 3:
			c.failSwitch()
		}
		if i%193 == 192 {
			c.mgr.Compact()
		}
		if i%97 == 96 {
			c.placement()
		}
		if i%61 == 60 {
			c.liveMove(uint32(1 + op.Pick%cfg.Locks))
		}
		if i%151 == 150 {
			c.now += chaosLease / 2
			c.sweep()
		}
		if op.Acquire && len(c.reqs) < cfg.MaxOutstanding {
			txn++
			c.acquire(txn, op)
			continue
		}
		keys := c.releasableKeys()
		if len(keys) == 0 {
			continue
		}
		c.release(keys[op.Pick%len(keys)])
	}

	// Drain to quiescence: release every known holder; anything else
	// (stale resurrected holders, stranded overflow) is flushed by
	// placement rounds and clock-advanced sweeps.
	stall := 0
	for len(c.reqs) > 0 || c.busy(cfg.Locks) {
		if keys := c.releasableKeys(); len(keys) > 0 {
			c.release(keys[0])
			stall = 0
			continue
		}
		c.now += 2 * chaosLease
		c.placement()
		c.sweep()
		if stall++; stall > 200 {
			t.Fatalf("seed %d: drain stalled with %d outstanding requests (busy=%v)",
				seed, len(c.reqs), c.busy(cfg.Locks))
		}
	}
	if v := c.ck.Quiesce(); v != nil {
		t.Fatalf("%v\nreproduce with: go test -run %s -netlock.seed=%d", v, t.Name(), seed)
	}
	grants, rejects, releases := c.ck.Stats()
	if grants < 100 {
		t.Fatalf("seed %d: vacuous run: only %d grants", seed, grants)
	}
	t.Logf("seed %d: %d grants, %d rejects, %d releases, %d stale, %d lost, %d busy live moves",
		seed, grants, rejects, releases, c.stale, len(c.lost), c.busyMoves)
}

// TestManagerChaosSafety is the end-to-end safety run over the full manager
// stack with failure injection. See the file comment for what it checks.
func TestManagerChaosSafety(t *testing.T) {
	for _, seed := range check.SeedsN(4) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed)
		})
	}
}
