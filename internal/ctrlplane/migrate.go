package ctrlplane

import (
	"fmt"
	"sort"

	"netlock/internal/core"
	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
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
// op-stream position, and the state — leases rebased onto the server's
// clock — is installed at the server.
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
	srv.PrepareImport(lockID)
	ex, baseNs, err := c.members[0].MigrateDemoteLock(lockID)
	if err != nil {
		return rebalance.Report{}, err
	}
	rep := rebalance.Report{LockID: lockID, ToSwitch: false}
	nowNs := srv.NowNs()
	banks := make([][]lockserver.ExportEntry, len(ex.Slots))
	for b := range ex.Slots {
		for _, sl := range ex.Slots[b] {
			h, lease, granted := switchdp.EntryFromSlot(lockID, b, sl)
			if lease != 0 {
				lease = lease - baseNs + nowNs
			}
			banks[b] = append(banks[b], lockserver.ExportEntry{Hdr: h, LeaseNs: lease, Granted: granted})
			if granted {
				rep.Granted = append(rep.Granted, h.TxnID)
			} else {
				rep.Waiting = append(rep.Waiting, h.TxnID)
			}
		}
	}
	if err := srv.ImportLock(lockID, banks); err != nil {
		// The export has left the chain; failing to land it would lose
		// state. Import only fails on shape errors the export cannot have.
		panic(fmt.Sprintf("ctrlplane: demoted state for lock %d rejected by server: %v", lockID, err))
	}
	c.layout.Release(lockID)
	return rep, nil
}

// MoveToSwitch live-promotes a server-owned lock into the switch chain
// with `slots` total queue slots, split across the priority banks by the
// shared layout (and widened per bank to the live queue depth if deeper).
// The server's state is exported, leases are rebased onto the head's
// clock, regions are placed in the controller's layout, and the chain
// installs the state at one op-stream position. On any failure after the
// export the state rolls back to the server.
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
	ex, err := srv.ExportLock(lockID)
	if err != nil {
		return rebalance.Report{}, err
	}
	rollback := func() {
		if err := srv.ImportLock(lockID, ex.Banks); err != nil {
			panic(fmt.Sprintf("ctrlplane: rollback of lock %d failed: %v", lockID, err))
		}
	}
	sizes, _ := c.layout.Split(slots, ex.Banks)
	if len(ex.Banks) > len(sizes) {
		rollback()
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d has %d banks, switch has %d", lockID, len(ex.Banks), len(sizes))
	}
	regions, err := c.layout.Reserve(lockID, sizes)
	if err != nil {
		rollback()
		return rebalance.Report{}, err
	}
	// Rebase a copy: the original stays valid (on the server's clock) for
	// rollback if the chain refuses the promote.
	rep := rebalance.Report{LockID: lockID, ToSwitch: true}
	headNow := c.members[0].NowNs()
	rebased := make([][]lockserver.ExportEntry, len(regions))
	for b := range ex.Banks {
		rebased[b] = append([]lockserver.ExportEntry(nil), ex.Banks[b]...)
		for i := range rebased[b] {
			if rebased[b][i].LeaseNs != 0 {
				rebased[b][i].LeaseNs = rebased[b][i].LeaseNs - ex.BaseNs + headNow
			}
			if rebased[b][i].Granted {
				rep.Granted = append(rep.Granted, rebased[b][i].Hdr.TxnID)
			} else {
				rep.Waiting = append(rep.Waiting, rebased[b][i].Hdr.TxnID)
			}
		}
	}
	if err := c.members[0].MigratePromoteLock(lockID, regions, rebased); err != nil {
		c.layout.Release(lockID)
		rollback()
		return rebalance.Report{}, err
	}
	return rep, nil
}

// moveServerToServer transfers one owned lock between two servers, leases
// rebased across their clocks. Caller holds c.mu.
func moveServerToServer(from, to *transport.Server, lockID uint32) error {
	ex, err := from.ExportLock(lockID)
	if err != nil {
		return err
	}
	nowNs := to.NowNs()
	for b := range ex.Banks {
		for i := range ex.Banks[b] {
			if ex.Banks[b][i].LeaseNs != 0 {
				ex.Banks[b][i].LeaseNs = ex.Banks[b][i].LeaseNs - ex.BaseNs + nowNs
			}
		}
	}
	return to.ImportLock(lockID, ex.Banks)
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
	vs, ts := c.servers[victim], c.servers[resolved]
	vs.SetDraining(true)
	owned := vs.OwnedLocks()
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	for _, id := range owned {
		if err := moveServerToServer(vs, ts, id); err != nil {
			return fmt.Errorf("ctrlplane: drain lock %d: %w", id, err)
		}
	}
	for _, id := range vs.OverflowLocks() {
		ts.ImportOverflow(id, vs.ExportOverflow(id))
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
	for i, from := range c.servers {
		if route.Resolve(i) != i {
			continue // drained: owns nothing
		}
		owned := from.OwnedLocks()
		sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
		for _, id := range owned {
			home := route.Home(id)
			if home == i {
				continue
			}
			if err := moveServerToServer(from, grown[home], id); err != nil {
				return fmt.Errorf("ctrlplane: rehash lock %d: %w", id, err)
			}
		}
		for _, id := range from.OverflowLocks() {
			home := route.Home(id)
			if home == i {
				continue
			}
			grown[home].ImportOverflow(id, from.ExportOverflow(id))
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
