package ctrlplane

import (
	"fmt"

	"netlock/internal/core"
	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

// Rack-level live migration: the controller moves a lock's occupied queue
// state between the switch chain and the lock servers while traffic is
// flowing, and grows or drains the server tier. It is the region
// allocator and the routing authority, so every placement change funnels
// through here; the chain-internal mechanics (sequenced OpMigrate records)
// live in transport, the per-node state surgery in switchdp and
// lockserver.

// The controller is the UDP rack's rebalance.Mover: the online rebalance
// loop that drives the embedded Manager's shards drives a rack the same
// way — demand measured from the chain head and the servers, moves
// executed as epoch-fenced chain migrations. The loop serializes its own
// calls; c.mu serializes them against drains, failovers and installs.
var _ rebalance.Mover = (*Controller)(nil)

// ServerIndexFor resolves a lock's home server index, drain redirects
// applied.
func (c *Controller) ServerIndexFor(lockID uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.route.Home(lockID)
}

// ResidentLocks returns the switch-resident lock IDs, ascending.
func (c *Controller) ResidentLocks() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.Locks()
}

// Placement returns each switch-resident lock's total slot count across
// banks — the "current" input to memalloc.Resolve.
func (c *Controller) Placement() map[uint32]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.Placement()
}

// SwitchCapacity returns the chain's total queue-slot capacity.
func (c *Controller) SwitchCapacity() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.Capacity()
}

// MeasureDemands reads and clears the per-lock load gauges rack-wide (the
// head's switch counters plus every server's) and merges them into
// memalloc demands over the given window, exactly as the embedded plane's
// core.Manager.MeasureDemands does.
func (c *Controller) MeasureDemands(windowSec float64) []memalloc.Demand {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sw []switchdp.LockLoad
	c.members[0].WithDataPlane(func(dp *switchdp.Switch) { sw = dp.CtrlMeasure() })
	var srv []lockserver.LockLoad
	for _, s := range c.servers {
		s.WithLockServer(func(ls *lockserver.Server) { srv = append(srv, ls.CtrlMeasure()...) })
	}
	return core.MergeDemands(windowSec, sw, srv)
}

// MoveToServer live-demotes a switch-resident lock to its home lock
// server: the destination is primed (so a racing request bounces instead
// of adopting the lock), the chain exports and evicts the lock at one
// op-stream position, and the state — rebased onto the server's clock —
// is installed at the server.
func (c *Controller) MoveToServer(lockID uint32) (rebalance.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.layout.Regions(lockID) == nil {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d is not switch-resident", lockID)
	}
	if len(c.servers) == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: no lock server to demote to")
	}
	srv := c.servers[c.route.Home(lockID)]
	srv.WithLockServer(func(ls *lockserver.Server) { ls.CtrlPrepareImport(lockID) })
	st, err := c.members[0].MigrateDemoteLock(lockID)
	if err != nil {
		return rebalance.Report{}, err
	}
	if _, err := importLock(srv, st); err != nil {
		// The export has left the chain; failing to land it would lose
		// state. Import only fails on shape errors the export cannot have.
		panic(fmt.Sprintf("ctrlplane: demoted state for lock %d rejected by server: %v", lockID, err))
	}
	c.layout.Release(lockID)
	return rebalance.NewReport(st, false), nil
}

// MoveToSwitch live-promotes a server-owned lock into the switch chain
// with `slots` total queue slots, split across the priority banks by the
// shared layout (and widened per bank to the live queue depth if deeper).
// The server's state is exported, regions are placed in the controller's
// layout, and the chain installs a copy rebased onto the head's clock at
// one op-stream position. On any failure after the export the original
// state rolls back to the server.
func (c *Controller) MoveToSwitch(lockID uint32, slots uint64) (rebalance.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.layout.Regions(lockID) != nil {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d already switch-resident", lockID)
	}
	if slots == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: promotion needs at least one slot")
	}
	if len(c.servers) == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: no lock server to promote from")
	}
	srv := c.servers[c.route.Home(lockID)]
	var st wire.LockState
	var err error
	srv.WithLockServer(func(ls *lockserver.Server) { st, err = ls.CtrlExportLock(lockID) })
	if err != nil {
		return rebalance.Report{}, err
	}
	rollback := func() {
		if err := srv.ImportLock(st); err != nil {
			panic(fmt.Sprintf("ctrlplane: rollback of lock %d failed: %v", lockID, err))
		}
	}
	sizes, _ := c.layout.Split(slots, st.Banks)
	if len(st.Banks) > len(sizes) {
		rollback()
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d has %d banks, switch has %d", lockID, len(st.Banks), len(sizes))
	}
	regions, err := c.layout.Reserve(lockID, sizes)
	if err != nil {
		rollback()
		return rebalance.Report{}, err
	}
	head := c.members[0]
	if err := head.MigratePromoteLock(regions, st.Rebase(head.NowNs())); err != nil {
		c.layout.Release(lockID)
		rollback()
		return rebalance.Report{}, err
	}
	return rebalance.NewReport(st, true), nil
}

// importLock rebases st onto srv's clock and installs it there, returning
// the rebased copy. The clock read and the import each take srv's lock on
// their own, so a move never holds two servers at once.
func importLock(srv *transport.Server, st wire.LockState) (wire.LockState, error) {
	var now int64
	srv.WithLockServer(func(ls *lockserver.Server) { now = ls.CtrlNow() })
	st = st.Rebase(now)
	return st, srv.ImportLock(st)
}

// evacuate moves off servers[from] every lock it owns, and every overflow
// residue it buffers, whose server under dest is another one: queue state
// as export → rebase → import, overflow residue as is. DrainServer sends
// everything to one target, AddServer each lock to its rehashed home.
// Caller holds c.mu.
func evacuate(servers []*transport.Server, from int, dest func(uint32) int) error {
	src := servers[from]
	var owned []uint32
	src.WithLockServer(func(ls *lockserver.Server) { owned = ls.CtrlOwnedLocks() })
	for _, id := range owned {
		to := dest(id)
		if to == from {
			continue
		}
		var st wire.LockState
		var err error
		src.WithLockServer(func(ls *lockserver.Server) { st, err = ls.CtrlExportLock(id) })
		if err == nil {
			_, err = importLock(servers[to], st)
		}
		if err != nil {
			return fmt.Errorf("move lock %d: %w", id, err)
		}
	}
	var overflow []uint32
	src.WithLockServer(func(ls *lockserver.Server) { overflow = ls.CtrlOverflowLocks() })
	for _, id := range overflow {
		to := dest(id)
		if to == from {
			continue
		}
		var banks [][]wire.Header
		src.WithLockServer(func(ls *lockserver.Server) { banks = ls.CtrlExportOverflow(id) })
		servers[to].WithLockServer(func(ls *lockserver.Server) { ls.CtrlImportOverflow(id, banks) })
	}
	return nil
}

// DrainServer evacuates lock server victim onto target and redirects the
// rack: every lock the victim owns (and any q2 overflow residue it buffers
// for switch-resident locks) moves to the target, then every chain member
// re-routes the victim's partition. The victim is flipped into draining
// mode FIRST, so requests arriving mid-drain for already-moved locks are
// answered with a moved redirect (the client retries through the switch)
// instead of re-adopting state on the dying node; the routing flip comes
// LAST, so no member ever routes to the target before the state is there.
func (c *Controller) DrainServer(victim, target int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resolved, err := c.route.Check(victim, target)
	if err != nil {
		return fmt.Errorf("ctrlplane: drain server: %w", err)
	}
	c.servers[victim].WithLockServer(func(ls *lockserver.Server) { ls.CtrlSetDraining(true) })
	if err := evacuate(c.servers, victim, func(uint32) int { return resolved }); err != nil {
		return fmt.Errorf("ctrlplane: drain server %d: %w", victim, err)
	}
	for _, m := range c.members {
		if err := m.SetServerRedirect(victim, resolved); err != nil {
			return err
		}
	}
	_, err = c.route.Redirect(victim, resolved)
	return err
}

// AddServer grows the server tier with an already-started node: locks (and
// overflow residue) whose RSS home moves under the widened partition are
// migrated first, then every chain member learns the new address — the
// routing flip comes last, so no member routes to a home that does not yet
// hold the state.
func (c *Controller) AddServer(srv *transport.Server) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := srv.SetSwitchAddr(c.members[0].Addr()); err != nil {
		return err
	}
	grown := append(append([]*transport.Server(nil), c.servers...), srv)
	route := c.route
	route.Grow()
	for i := range c.servers {
		if route.Resolve(i) != i {
			continue // drained: owns nothing
		}
		if err := evacuate(grown, i, route.Home); err != nil {
			return fmt.Errorf("ctrlplane: rehash server %d: %w", i, err)
		}
	}
	for _, m := range c.members {
		if err := m.AddServerAddr(srv.Addr()); err != nil {
			return err
		}
	}
	c.servers, c.route = grown, route
	return nil
}
