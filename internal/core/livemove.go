package core

import (
	"fmt"

	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
)

// Live region moves: the one way a lock changes sides on the embedded
// plane. They transfer a lock's occupied queue — granted bits included —
// between switch and server in one control action, without waiting for
// the queue to empty, where the paper (§4.3) pauses the lock and waits.
// Reallocate, PreinstallLock, the rebalancer, AddServer and DrainServer
// all move locks this way. The embedded manager is single-threaded, so
// the export+import pair is atomic from the data path's point of view;
// the UDP transport reproduces the same sequence with epoch-fenced chain
// messages (internal/transport).

// MoveToServer live-demotes a resident lock to its home server: the
// switch's queue state is exported (evicting the lock), rebased and
// installed at the server with granted flags preserved; overflow requests
// the server buffered while the lock was resident replay behind it. The
// returned emits (q2-replay grants) must be delivered by the caller.
func (m *Manager) MoveToServer(id uint32) (rebalance.Report, []lockserver.Emit, error) {
	srv := m.servers[m.ServerFor(id)]
	if srv.CtrlOwns(id) {
		return rebalance.Report{LockID: id}, nil, fmt.Errorf("core: lock %d already server-owned", id)
	}
	st, err := m.sw.CtrlExportLock(id)
	if err != nil {
		return rebalance.Report{LockID: id}, nil, err
	}
	m.layout.Release(id)
	emits, err := srv.CtrlImportLock(st.Rebase(srv.CtrlNow()))
	if err != nil {
		// Unreachable with the ownership pre-check above; fail loudly rather
		// than silently dropping holder state.
		panic(fmt.Sprintf("core: live demote of lock %d lost state: %v", id, err))
	}
	return rebalance.NewReport(st, false), emits, nil
}

// MoveToSwitch live-promotes a server-owned lock into the switch with the
// given slot count: the server's queues are exported (releasing ownership),
// rebased and installed literally in freshly reserved regions. The
// allocation is widened if the live queue is deeper than requested, so the
// occupied state always fits. On capacity failure the original export is
// re-imported at the server and the move reports an error; nothing is lost
// either way.
func (m *Manager) MoveToSwitch(id uint32, slots uint64) (rebalance.Report, error) {
	rep := rebalance.Report{LockID: id, ToSwitch: true}
	if m.sw.CtrlHasLock(id) {
		return rep, fmt.Errorf("core: lock %d already switch-resident", id)
	}
	if m.sw.CtrlFreeEntries() == 0 {
		return rep, fmt.Errorf("core: %w: lock table full", ErrNoCapacity)
	}
	srv := m.servers[m.ServerFor(id)]
	st, err := srv.CtrlExportLock(id)
	if err != nil {
		return rep, err
	}
	rollback := func() {
		if _, rerr := srv.CtrlImportLock(st); rerr != nil {
			panic(fmt.Sprintf("core: live promote rollback of lock %d lost state: %v", id, rerr))
		}
	}
	regions, ok := m.reserve(id, slots, st.Banks)
	if !ok {
		rollback()
		return rep, fmt.Errorf("core: %w: queue memory exhausted for lock %d", ErrNoCapacity, id)
	}
	if err := m.sw.CtrlImportLock(regions, st.Rebase(m.sw.CtrlNow())); err != nil {
		m.layout.Release(id)
		rollback()
		return rep, err
	}
	return rebalance.NewReport(st, true), nil
}

// Placement returns the resident locks and their allocated slot counts — the
// "current" input to memalloc.Resolve.
func (m *Manager) Placement() map[uint32]uint64 { return m.layout.Placement() }

// SwitchCapacity returns the total shared-queue slots across all banks.
func (m *Manager) SwitchCapacity() uint64 { return m.layout.Capacity() }

// AddServer grows the rack by one lock server and rebalances the static
// partition: every lock whose RSSCore home changes under the new server
// count migrates — live, queue state intact — to its new home, overflow
// residue included. Returns the new server's index and any q2-replay emits
// to deliver.
func (m *Manager) AddServer() (int, []lockserver.Emit) {
	m.servers = append(m.servers, lockserver.New(m.cfg.ServerConfig))
	idx := m.route.Grow()
	var emits []lockserver.Emit
	for i := range m.servers[:idx] {
		emits = append(emits, m.evacuate(i, m.ServerFor)...)
	}
	return idx, emits
}

// DrainServer live-evacuates a server for decommissioning: the victim stops
// adopting new locks (draining mode redirects unknown-lock requests with
// OpReject+FlagMoved), every owned lock's queue state moves to the target,
// overflow residue follows, and finally the victim's partition is
// redirected. Ordering matters: state moves before the routing flip, so a
// request racing the drain either reaches the victim (served or redirected)
// or the target (state already there).
func (m *Manager) DrainServer(victim, target int) ([]lockserver.Emit, error) {
	to, err := m.route.Check(victim, target)
	if err != nil {
		return nil, fmt.Errorf("core: drain server: %w", err)
	}
	m.servers[victim].CtrlSetDraining(true)
	emits := m.evacuate(victim, func(uint32) int { return to })
	_, _ = m.route.Redirect(victim, to) // cannot fail: Check passed above
	m.noteFailover(obs.FailoverServer)
	return emits, nil
}

// evacuate moves off server from every lock it owns, and every overflow
// residue it buffers, whose server under dest is another one: queue state
// as export → rebase → import, overflow residue as is. DrainServer sends
// everything to one target, AddServer each lock to its rehashed home.
// Returns the q2-replay emits to deliver.
func (m *Manager) evacuate(from int, dest func(uint32) int) []lockserver.Emit {
	src := m.servers[from]
	var emits []lockserver.Emit
	for _, id := range src.CtrlOwnedLocks() {
		to := dest(id)
		if to == from {
			continue
		}
		st, err := src.CtrlExportLock(id)
		if err != nil {
			continue
		}
		dst := m.servers[to]
		es, err := dst.CtrlImportLock(st.Rebase(dst.CtrlNow()))
		if err != nil {
			panic(fmt.Sprintf("core: move of lock %d from server %d lost state: %v", id, from, err))
		}
		emits = append(emits, es...)
	}
	for _, id := range src.CtrlOverflowLocks() {
		if to := dest(id); to != from {
			m.servers[to].CtrlImportOverflow(id, src.CtrlExportOverflow(id))
		}
	}
	return emits
}
