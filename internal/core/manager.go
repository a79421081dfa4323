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
//     (internal/memalloc, Algorithm 3), and move locks between switch and
//     servers live, queue state intact (livemove.go);
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
	"netlock/internal/rebalance"
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
		cfg:    cfg,
		sw:     sw,
		route:  lockserver.NewRouting(cfg.Servers),
		layout: NewLayout(sw.Banks(), uint64(sw.BankSlots())),
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

// Allocator selects the placement policy for Reallocate.
type Allocator func(demands []memalloc.Demand, capacity uint64) memalloc.Plan

// Reallocate runs one round of the memory-management loop with the given
// demands: plan the placement with the allocator over the full switch
// capacity, then move toward it with the live moves. First each idle
// resident lock that left the plan, or whose planned size drifted more
// than 2x from its regions (hysteresis: measurement noise between windows
// does not churn moves), is demoted to its server; then each idle planned
// lock is promoted, most valuable first, until the lock table fills.
// A lock with queued requests stays where it is until a later round finds
// it idle, as in the paper, which moves a lock only once its queue is
// empty. Returns the moves made and the q2-replay grants of the
// demotions, which the caller must deliver.
func (m *Manager) Reallocate(demands []memalloc.Demand, alloc Allocator) ([]rebalance.Report, []lockserver.Emit) {
	if alloc == nil {
		alloc = memalloc.Knapsack
	}
	plan := alloc(demands, m.layout.Capacity())
	// Target slot counts, as the bank split rounds them.
	target := make(map[uint32]uint64, len(plan.Switch))
	for _, a := range plan.Switch {
		_, target[a.LockID] = m.layout.Split(a.Slots, nil)
	}
	var moves []rebalance.Report
	var emits []lockserver.Emit
	for _, id := range m.sw.CtrlResidentLocks() {
		if want, keep := target[id]; keep {
			if cur := m.layout.Slots(id); want > cur/2 && want < cur*2 {
				continue
			}
		}
		if !m.idle(id) {
			continue
		}
		rep, es, err := m.MoveToServer(id)
		if err != nil {
			continue // refused only when its server also owns the lock
		}
		moves = append(moves, rep)
		emits = append(emits, es...)
	}
	for _, a := range plan.Switch {
		if m.sw.CtrlFreeEntries() == 0 {
			break
		}
		if m.sw.CtrlHasLock(a.LockID) || !m.idle(a.LockID) {
			continue
		}
		if rep, err := m.MoveToSwitch(a.LockID, target[a.LockID]); err == nil {
			moves = append(moves, rep)
		}
	}
	return moves, emits
}

// idle reports whether lock id has no queued request where it lives now:
// in its switch queues when it is resident, at its server otherwise.
func (m *Manager) idle(id uint32) bool {
	if st, err := m.sw.CtrlLockState(id); err == nil {
		for _, b := range st.Banks {
			if b.Count != 0 {
				return false
			}
		}
		return true
	}
	owned, _ := m.servers[m.ServerFor(id)].CtrlQueueDepth(id)
	return owned == 0
}

// PreinstallLock makes a lock switch-resident ahead of traffic (warmup)
// with the given slot count (rounded up to one slot per priority bank),
// without waiting for a measurement window. It is a MoveToSwitch, so a
// lock with requests queued at its server moves with its queue intact. A
// lock already resident is a no-op. When the lock table or queue memory
// cannot fit the lock, the error wraps ErrNoCapacity.
func (m *Manager) PreinstallLock(id uint32, slots uint64) error {
	if m.sw.CtrlHasLock(id) {
		return nil
	}
	_, err := m.MoveToSwitch(id, slots)
	return err
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
// Only idle locks can move; locks with queued requests keep their
// regions, bounding how much a single compaction can recover.
func (m *Manager) Compact() {
	type resident struct {
		id      uint32
		regions []switchdp.Region
	}
	var movable []resident
	for _, id := range m.sw.CtrlResidentLocks() {
		if m.idle(id) {
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
