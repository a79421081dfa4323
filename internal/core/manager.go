// Package core implements the NetLock manager: the control plane that
// co-designs one programmable switch and a set of lock servers into a
// single, fast, centralized lock manager (paper §3–§4).
//
// The manager owns:
//
//   - the switch data plane (internal/switchdp) and its lock table;
//   - the lock servers (internal/lockserver) and the static partitioning of
//     lock IDs across them;
//   - the memory-management control loop (§4.3): measure per-lock request
//     rates and contention, run the optimal knapsack allocation
//     (internal/memalloc, Algorithm 3), and migrate locks between switch
//     and servers with the drain-first protocol;
//   - region bookkeeping in the shared queue, including the periodic
//     compaction that alleviates fragmentation;
//   - failure handling (§4.5): switch reset and reactivation, lease sweeps.
//
// The manager is transport-agnostic: it never sends packets itself. Packet
// movement — client to switch, switch emits to servers or clients, control
// injections — is driven by internal/cluster (virtual time) or
// internal/transport (real UDP), both of which route through the manager's
// logic objects.
package core

import (
	"errors"
	"fmt"
	"sort"

	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// ErrNoCapacity reports that the switch cannot host a lock: the lock table
// or the shared queue memory is exhausted.
var ErrNoCapacity = errors.New("no switch capacity")

// Config assembles a NetLock instance.
type Config struct {
	// Switch configures the data plane (see switchdp.Config).
	Switch switchdp.Config
	// Servers is the number of lock servers in the rack.
	Servers int
	// PauseBusyMoves enables the paper's pause-and-move protocol (§4.3)
	// for locks that never drain: after several deferred rounds the lock
	// is paused at its server (new requests buffer) until its queue
	// empties and the move completes. Pausing stalls the lock's
	// requesters for up to a control round, and only a later Reallocate
	// round completes or aborts the move, so it needs a caller that keeps
	// ticking Reallocate; the evaluation testbed leaves it off and simply
	// defers until the lock idles.
	PauseBusyMoves bool
	// ServerConfig configures each lock server; Priorities is forced to
	// match the switch.
	ServerConfig lockserver.Config
	// Obs, when non-nil, instruments this instance's switch and servers. A
	// core.Manager is single-threaded, so one stripe serves the whole
	// instance; concurrent instances (the embedded shards) each get their
	// own stripe.
	Obs *obs.Stripe
}

// Manager is one NetLock instance: a switch plus lock servers and the
// control plane gluing them. Not safe for concurrent use.
type Manager struct {
	cfg     Config
	sw      *switchdp.Switch
	servers []*lockserver.Server
	// route is the lock→server directory clients resolve (§4.1), failover
	// and drain redirects included (§4.5).
	route lockserver.Routing
	// layout records the shared-queue regions each resident lock occupies,
	// one per priority bank.
	layout *Layout

	// pendingMoves tracks locks whose move to the switch is draining at
	// their server (paused, §4.3); every Reallocate round either completes
	// or aborts them, so buffered requesters can never be stranded.
	pendingMoves   map[uint32]uint64
	movesStarted   int
	moveAbortEmits []lockserver.Emit
	// deferStreak counts consecutive rounds an install was deferred
	// because the lock never drained; only stubborn locks get paused.
	deferStreak map[uint32]int

	swFailed bool
}

// New builds a NetLock manager.
func New(cfg Config) *Manager {
	if cfg.Servers <= 0 {
		panic("core: need at least one lock server")
	}
	cfg.ServerConfig.Priorities = max(cfg.Switch.Priorities, 1)
	if cfg.ServerConfig.Now == nil {
		cfg.ServerConfig.Now = cfg.Switch.Now
	}
	if cfg.ServerConfig.DefaultLeaseNs == 0 {
		cfg.ServerConfig.DefaultLeaseNs = cfg.Switch.DefaultLeaseNs
	}
	if cfg.Obs != nil {
		if cfg.Switch.Obs == nil {
			cfg.Switch.Obs = cfg.Obs
		}
		if cfg.ServerConfig.Obs == nil {
			cfg.ServerConfig.Obs = cfg.Obs
		}
	}
	sw := switchdp.New(cfg.Switch)
	m := &Manager{
		cfg:          cfg,
		sw:           sw,
		route:        lockserver.NewRouting(cfg.Servers),
		layout:       NewLayout(sw.Banks(), uint64(sw.BankSlots())),
		pendingMoves: make(map[uint32]uint64),
		deferStreak:  make(map[uint32]int),
	}
	for i := 0; i < cfg.Servers; i++ {
		m.servers = append(m.servers, lockserver.New(cfg.ServerConfig))
	}
	return m
}

// Switch returns the switch data plane.
func (m *Manager) Switch() *switchdp.Switch { return m.sw }

// Server returns lock server i.
func (m *Manager) Server(i int) *lockserver.Server { return m.servers[i] }

// NumServers returns the number of lock servers.
func (m *Manager) NumServers() int { return len(m.servers) }

// ServerFor returns the lock server index responsible for a lock: the
// partitioning clients resolve through the directory service (§4.1),
// including any failover redirects (§4.5).
func (m *Manager) ServerFor(lockID uint32) int { return m.route.Home(lockID) }

// SwitchFailed reports whether the switch is currently failed.
func (m *Manager) SwitchFailed() bool { return m.swFailed }

// --- Memory management control loop (§4.3) ---

// MeasureDemands closes a measurement window of the given length and
// returns the per-lock demand estimates feeding Algorithm 3. Switch-side
// counters cover resident locks (with server-buffered overflow depth folded
// into contention); server counters cover server-owned locks.
func (m *Manager) MeasureDemands(windowSec float64) []memalloc.Demand {
	var srv []lockserver.LockLoad
	for _, ls := range m.servers {
		srv = append(srv, ls.CtrlMeasure()...)
	}
	return MergeDemands(windowSec, m.sw.CtrlMeasure(), srv)
}

// Report summarizes one reallocation round.
type Report struct {
	Installed []uint32
	Removed   []uint32
	Resized   []uint32
	// Deferred locks could not be migrated this round because their queues
	// were not drained; the next round retries (§4.3 pauses and waits; the
	// control loop instead retries on the next window).
	Deferred []uint32
	// Emits are grant packets produced when server adoption processed
	// buffered requests; the caller must deliver them.
	Emits []lockserver.Emit
	// SwitchPushes are requests that were buffered at a server while a
	// hot lock's move drained (§4.3 pause-and-move); the caller must
	// inject them into the switch data plane, in order.
	SwitchPushes []wire.Header
	// Plan is the allocation decision that drove the round.
	Plan memalloc.Plan
}

// Allocator selects the placement policy for Reallocate.
type Allocator func(demands []memalloc.Demand, capacity uint64) memalloc.Plan

// Reallocate runs one round of the memory-management loop with the given
// demands: compute the target placement with the allocator over the full
// switch capacity, then migrate drained locks toward it. Locks whose queues
// are not empty are deferred.
// maxNewMovesPerRound bounds how many busy locks a single Reallocate round
// may pause for migration, and pauseAfterDeferrals is how many consecutive
// busy rounds a lock must accumulate before pausing it is worthwhile.
const (
	maxNewMovesPerRound = 32
	pauseAfterDeferrals = 3
)

func (m *Manager) Reallocate(demands []memalloc.Demand, alloc Allocator) Report {
	if alloc == nil {
		alloc = memalloc.Knapsack
	}
	m.movesStarted = 0
	m.moveAbortEmits = nil
	plan := alloc(demands, m.layout.Capacity())
	report := Report{Plan: plan}

	// Target slot counts, as the bank split rounds them.
	target := make(map[uint32]uint64, len(plan.Switch))
	for _, a := range plan.Switch {
		_, target[a.LockID] = m.layout.Split(a.Slots, nil)
	}

	// Phase 0: resolve moves left draining by earlier rounds. A paused
	// lock generates no measurable traffic, so it may have dropped out of
	// the new plan: complete the move if it is still wanted, abort it (the
	// server resumes processing, buffered requests included) otherwise.
	// Lock-ID order, not map order: the first completed move gets the
	// lowest regions, and the report lists and emits must replay from a seed.
	pending := make([]uint32, 0, len(m.pendingMoves))
	for id := range m.pendingMoves {
		pending = append(pending, id)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	for _, id := range pending {
		if want, keep := target[id]; keep {
			if m.installLock(id, want, &report) {
				report.Installed = append(report.Installed, id)
			} else {
				report.Deferred = append(report.Deferred, id)
			}
			continue
		}
		emits := m.servers[m.ServerFor(id)].CtrlAbortMove(id)
		report.Emits = append(report.Emits, emits...)
		delete(m.pendingMoves, id)
	}

	// Phase 1: remove resident locks that should leave (or be resized).
	// Resizes apply hysteresis: a resident lock keeps its regions until the
	// desired size drifts by more than 2x, so measurement noise between
	// windows does not churn migrations (each one pauses the lock).
	for _, id := range m.sw.CtrlResidentLocks() {
		want, keep := target[id]
		if keep {
			cur := m.layout.Slots(id)
			if want == cur || (want > cur/2 && want < cur*2) {
				continue
			}
		}
		if !m.removeResident(id, &report) {
			report.Deferred = append(report.Deferred, id)
			if keep {
				// Could not resize in place: keep the old size this round.
				delete(target, id)
			}
			continue
		}
		if keep {
			report.Resized = append(report.Resized, id)
		} else {
			report.Removed = append(report.Removed, id)
		}
	}

	// Phase 2: install target locks not yet resident, most valuable first.
	// Stop when the lock table fills: the remaining plan entries are the
	// least valuable and stay on the servers.
	for _, a := range plan.Switch {
		if m.sw.CtrlFreeEntries() == 0 {
			break
		}
		want, ok := target[a.LockID]
		if !ok || m.sw.CtrlHasLock(a.LockID) {
			continue
		}
		if !m.installLock(a.LockID, want, &report) {
			report.Deferred = append(report.Deferred, a.LockID)
			continue
		}
		report.Installed = append(report.Installed, a.LockID)
	}
	report.Emits = append(report.Emits, m.moveAbortEmits...)
	m.moveAbortEmits = nil
	return report
}

// PreinstallLock makes a lock switch-resident ahead of traffic (warmup): it
// reserves the requested slot count (rounded up to one slot per priority
// bank) and installs the lock without waiting for a measurement window.
// When the lock table or queue memory cannot fit it, the error wraps
// ErrNoCapacity; a lock that is busy draining at its server returns a plain
// error and can be retried. A lock already resident is a no-op. The returned
// report carries any emits and switch pushes the caller must deliver (only
// possible for locks that were mid-move; a cold lock produces none).
func (m *Manager) PreinstallLock(id uint32, slots uint64) (Report, error) {
	var report Report
	if m.sw.CtrlHasLock(id) {
		return report, nil
	}
	_, slots = m.layout.Split(slots, nil)
	if m.sw.CtrlFreeEntries() == 0 {
		return report, fmt.Errorf("core: %w: lock table full (%d locks)",
			ErrNoCapacity, m.cfg.Switch.MaxLocks)
	}
	if slots > m.FreeSlots() {
		return report, fmt.Errorf("core: %w: %d slots requested, %d free",
			ErrNoCapacity, slots, m.FreeSlots())
	}
	m.moveAbortEmits = nil
	if !m.installLock(id, slots, &report) {
		report.Emits = append(report.Emits, m.moveAbortEmits...)
		m.moveAbortEmits = nil
		return report, fmt.Errorf("core: lock %d not installed (busy at its server, or queue memory fragmented)", id)
	}
	report.Emits = append(report.Emits, m.moveAbortEmits...)
	m.moveAbortEmits = nil
	report.Installed = append(report.Installed, id)
	return report, nil
}

// removeResident drains a lock off the switch and hands it to its server,
// returning false if the lock's queues are not empty.
func (m *Manager) removeResident(id uint32, report *Report) bool {
	if err := m.sw.CtrlRemoveLock(id); err != nil {
		return false
	}
	m.layout.Release(id)
	emits := m.servers[m.ServerFor(id)].CtrlAdoptLock(id)
	report.Emits = append(report.Emits, emits...)
	return true
}

// installLock moves a server-owned lock into the switch with the given slot
// count. A busy lock is marked moving at the server (new requests pause
// into its buffer, §4.3) and the install completes on a later round once
// the queues drain; buffered requests are appended to report.SwitchPushes
// for injection into the switch.
func (m *Manager) installLock(id uint32, slots uint64, report *Report) bool {
	if m.sw.CtrlFreeEntries() == 0 {
		return false
	}
	srv := m.servers[m.ServerFor(id)]
	regions, ok := m.reserve(id, slots, nil)
	if !ok {
		return false
	}
	pushes, err := srv.CtrlTakeForSwitch(id)
	if err != nil {
		// Not drained yet: the move stays pending at the server (tracked
		// so a later round always completes or aborts it) and this round's
		// regions are returned. New pauses are budgeted per round — pausing
		// thousands of warm locks at once would stall the workload — so a
		// busy lock beyond the budget resumes immediately and is retried
		// when it is idle or a later round has budget.
		if errors.Is(err, lockserver.ErrNotDrained) {
			m.deferStreak[id]++
			_, already := m.pendingMoves[id]
			// Most locks idle between rounds; deferring is free. Pausing
			// (keeping the lock in the moving state so it drains) stalls
			// its requesters for up to a round, so it is reserved for
			// locks that stayed busy several consecutive rounds, within a
			// per-round budget.
			if already || (m.cfg.PauseBusyMoves && m.deferStreak[id] >= pauseAfterDeferrals && m.movesStarted < maxNewMovesPerRound) {
				if !already {
					m.movesStarted++
				}
				m.pendingMoves[id] = slots
			} else {
				// Immediate abort: moving was set an instant ago, so no
				// requests were buffered; this is a pure state flip back.
				for _, e := range srv.CtrlAbortMove(id) {
					m.moveAbortEmits = append(m.moveAbortEmits, e)
				}
			}
		}
		m.layout.Release(id)
		return false
	}
	delete(m.pendingMoves, id)
	delete(m.deferStreak, id)
	if err := m.sw.CtrlInstallLock(id, regions); err != nil {
		// Roll back: the server owns the lock again; requests buffered
		// during the drain are re-processed there.
		report.Emits = append(report.Emits, srv.CtrlAdoptLock(id)...)
		m.layout.Release(id)
		return false
	}
	report.SwitchPushes = append(report.SwitchPushes, pushes...)
	return true
}

// reserve places lock id in the layout with the bank split of slots
// (widened to the live queues in live), compacting once and retrying when
// free space is fragmented.
func (m *Manager) reserve(id uint32, slots uint64, live [][]wire.LockEntry) ([]switchdp.Region, bool) {
	sizes, _ := m.layout.Split(slots, live)
	regions, err := m.layout.Reserve(id, sizes)
	if err != nil {
		m.Compact()
		regions, err = m.layout.Reserve(id, sizes)
	}
	return regions, err == nil
}

// Compact reorganizes the switch memory layout to merge free space (§4.3).
// Only drained locks can move; locks with queued requests keep their
// regions, bounding how much a single compaction can recover.
func (m *Manager) Compact() {
	type resident struct {
		id      uint32
		regions []switchdp.Region
	}
	var movable []resident
	for _, id := range m.sw.CtrlResidentLocks() {
		st, err := m.sw.CtrlLockState(id)
		if err != nil {
			continue
		}
		drained := true
		for _, b := range st.Banks {
			if b.Count != 0 {
				drained = false
				break
			}
		}
		if drained {
			movable = append(movable, resident{id: id, regions: m.layout.Regions(id)})
		}
	}
	sort.Slice(movable, func(i, j int) bool { return movable[i].regions[0].Left < movable[j].regions[0].Left })
	// Remove all movable locks, then reinstall tightly in address order.
	removed := movable[:0]
	for _, r := range movable {
		if m.sw.CtrlRemoveLock(r.id) == nil {
			m.layout.Release(r.id)
			removed = append(removed, r)
		}
	}
	for _, r := range removed {
		sizes := make([]uint64, len(r.regions))
		for b, reg := range r.regions {
			sizes[b] = reg.Size()
		}
		regions, err := m.layout.Reserve(r.id, sizes)
		if err != nil {
			// Should not happen (same total space); fall back to server.
			m.servers[m.ServerFor(r.id)].CtrlAdoptLock(r.id)
			continue
		}
		if err := m.sw.CtrlInstallLock(r.id, regions); err != nil {
			m.servers[m.ServerFor(r.id)].CtrlAdoptLock(r.id)
			m.layout.Release(r.id)
		}
	}
}

// Fragmentation returns the worst per-bank fragmentation metric in [0,1].
func (m *Manager) Fragmentation() float64 { return m.layout.Fragmentation() }

// FreeSlots returns the total unallocated shared-queue slots.
func (m *Manager) FreeSlots() uint64 { return m.layout.FreeSlots() }

// --- Failure handling (§4.5, §6.5) ---

// FailSwitch simulates a switch failure: all data-plane state is lost.
// While failed, the rack is unreachable (the ToR is the only path), which
// the testbed models by dropping traffic.
func (m *Manager) FailSwitch() {
	m.swFailed = true
	m.sw.CtrlReset()
	m.noteFailover(obs.FailoverSwitchDown)
}

// noteFailover records one failure-handling transition.
func (m *Manager) noteFailover(code int64) {
	if o := m.cfg.Obs; o != nil {
		o.Inc(obs.CtrFailovers)
		if o.Tracing() {
			o.Trace(obs.TraceEvent{Event: obs.EvFailover, Arg: code})
		}
	}
}

// RestartSwitch reactivates the switch: the control plane (this manager)
// reinstalls the lock table from its own records with empty queues. Stale
// client-held grants are reclaimed by lease expiry.
func (m *Manager) RestartSwitch() {
	if !m.swFailed {
		return
	}
	// Recover placement: reinstall every previously resident lock at its
	// recorded regions; the servers keep owning their locks.
	for _, id := range m.layout.Locks() {
		if err := m.sw.CtrlInstallLock(id, m.layout.Regions(id)); err != nil {
			panic(fmt.Sprintf("core: reinstall after restart failed: %v", err))
		}
	}
	m.swFailed = false
	m.noteFailover(obs.FailoverSwitchUp)
}

// FailServer reassigns all locks owned by a failed server to another server
// (§4.5): the replacement adopts them with empty queues; clients resubmit
// and leases expire any stale grants. An out-of-range index, a
// self-replacement or a redirect cycle is refused before anything changes.
func (m *Manager) FailServer(failed, replacement int) error {
	to, err := m.route.Redirect(failed, replacement)
	if err != nil {
		return fmt.Errorf("core: fail server: %w", err)
	}
	src, dst := m.servers[failed], m.servers[to]
	for _, id := range src.CtrlOwnedLocks() {
		src.CtrlForget(id)
		dst.CtrlAdoptLock(id)
	}
	m.noteFailover(obs.FailoverServer)
	return nil
}

// --- Lease sweep (§4.5) ---

// SweepLeases scans the switch and all servers for expired leases at the
// given time. Switch-side expiries are returned as release packets the
// caller must inject into the switch data plane; server-side sweeps run
// in place and their resulting grants are returned for delivery.
func (m *Manager) SweepLeases(now int64) (switchReleases []wire.Header, serverEmits []lockserver.Emit) {
	if !m.swFailed {
		switchReleases = m.sw.CtrlScanExpired(now)
	}
	for _, srv := range m.servers {
		serverEmits = append(serverEmits, srv.CtrlScanExpired(now)...)
	}
	return switchReleases, serverEmits
}

// SweepStranded polls for overflow queues whose push notification was lost
// to packet reordering and returns the notifications to re-deliver to the
// locks' servers (§4.3 liveness; see switchdp.CtrlScanStranded).
func (m *Manager) SweepStranded() []wire.Header {
	if m.swFailed {
		return nil
	}
	return m.sw.CtrlScanStranded()
}
