package ctrlplane

import (
	"fmt"
	"sort"

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

// serverIndexForLocked resolves a lock's home server, following drain
// redirects. Caller holds c.mu.
func (c *Controller) serverIndexForLocked(lockID uint32) int {
	i := lockserver.RSSCore(lockID, len(c.servers))
	for n := 0; n < len(c.servers); n++ {
		t, ok := c.redirect[i]
		if !ok {
			return i
		}
		i = t
	}
	return i
}

// ServerIndexFor resolves a lock's home server index, drain redirects
// applied.
func (c *Controller) ServerIndexFor(lockID uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverIndexForLocked(lockID)
}

// ResidentLocks returns the switch-resident lock IDs, ascending.
func (c *Controller) ResidentLocks() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint32, 0, len(c.regions))
	for id := range c.regions {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Placement returns each switch-resident lock's total slot count across
// banks — the "current" input to memalloc.Resolve.
func (c *Controller) Placement() map[uint32]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]uint64, len(c.regions))
	for id, regs := range c.regions {
		var n uint64
		for _, r := range regs {
			n += r.Right - r.Left
		}
		out[id] = n
	}
	return out
}

// SwitchCapacity returns the chain's total queue-slot capacity.
func (c *Controller) SwitchCapacity() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	banks, bankSlots := c.bankGeometryLocked()
	return uint64(banks) * bankSlots
}

func (c *Controller) bankGeometryLocked() (int, uint64) {
	var banks, slots int
	c.members[0].WithDataPlane(func(dp *switchdp.Switch) {
		banks, slots = dp.Banks(), dp.BankSlots()
	})
	return banks, uint64(slots)
}

// MeasureDemands reads and clears the per-lock load gauges rack-wide (the
// head's switch counters plus every server's) and converts them into
// memalloc demands over the given window, exactly as the embedded plane's
// core.Manager.MeasureDemands does.
func (c *Controller) MeasureDemands(windowSec float64) []memalloc.Demand {
	c.mu.Lock()
	defer c.mu.Unlock()
	if windowSec <= 0 {
		panic("ctrlplane: non-positive measurement window")
	}
	byID := make(map[uint32]*memalloc.Demand)
	c.members[0].WithDataPlane(func(dp *switchdp.Switch) {
		for _, l := range dp.CtrlMeasure() {
			byID[l.LockID] = &memalloc.Demand{
				LockID:     l.LockID,
				Rate:       float64(l.Requests) / windowSec,
				Contention: l.MaxQueue,
			}
		}
	})
	for _, srv := range c.servers {
		srv.WithLockServer(func(ls *lockserver.Server) {
			for _, l := range ls.CtrlMeasure() {
				if d, ok := byID[l.LockID]; ok {
					d.Contention += l.BufferedPeak
					continue
				}
				if !l.Owned {
					continue
				}
				byID[l.LockID] = &memalloc.Demand{
					LockID:     l.LockID,
					Rate:       float64(l.Requests) / windowSec,
					Contention: l.MaxConcurrent,
				}
			}
		})
	}
	out := make([]memalloc.Demand, 0, len(byID))
	for _, d := range byID {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LockID < out[j].LockID })
	return out
}

// allocRegionsLocked finds a free region of the needed size in every bank
// (first fit over the controller's placement records). Caller holds c.mu.
func (c *Controller) allocRegionsLocked(need []uint64) ([]switchdp.Region, error) {
	banks, bankSlots := c.bankGeometryLocked()
	if len(need) != banks {
		return nil, fmt.Errorf("ctrlplane: %d sizes for %d banks", len(need), banks)
	}
	out := make([]switchdp.Region, banks)
	for b := 0; b < banks; b++ {
		var used []switchdp.Region
		for _, regs := range c.regions {
			if b < len(regs) && regs[b].Right > regs[b].Left {
				used = append(used, regs[b])
			}
		}
		sort.Slice(used, func(i, j int) bool { return used[i].Left < used[j].Left })
		cursor := uint64(0)
		placed := false
		for _, u := range used {
			if u.Left >= cursor+need[b] {
				break
			}
			if u.Right > cursor {
				cursor = u.Right
			}
		}
		if cursor+need[b] <= bankSlots {
			out[b] = switchdp.Region{Left: cursor, Right: cursor + need[b]}
			placed = true
		}
		if !placed {
			return nil, fmt.Errorf("ctrlplane: no free region of %d slots in bank %d", need[b], b)
		}
	}
	return out, nil
}

// MoveToServer live-demotes a switch-resident lock to its home lock
// server: the destination is primed (so a racing request bounces instead
// of adopting the lock), the chain exports and evicts the lock at one
// op-stream position, and the state — leases rebased onto the server's
// clock — is installed at the server.
func (c *Controller) MoveToServer(lockID uint32) (rebalance.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regions[lockID]; !ok {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d is not switch-resident", lockID)
	}
	if len(c.servers) == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: no lock server to demote to")
	}
	srv := c.servers[c.serverIndexForLocked(lockID)]
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
	delete(c.regions, lockID)
	return rep, nil
}

// MoveToSwitch live-promotes a server-owned lock into the switch chain
// with `slots` total queue slots, split across the priority banks as
// core.Manager does (and widened per bank to the live queue depth if
// deeper). The server's state is exported, leases are rebased onto the
// head's clock, regions are allocated from the controller's free map, and
// the chain installs the state at one op-stream position. On any failure
// after the export the state rolls back to the server.
func (c *Controller) MoveToSwitch(lockID uint32, slots uint64) (rebalance.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regions[lockID]; ok {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d already switch-resident", lockID)
	}
	if slots == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: promotion needs at least one slot")
	}
	if len(c.servers) == 0 {
		return rebalance.Report{}, fmt.Errorf("ctrlplane: no lock server to promote from")
	}
	srv := c.servers[c.serverIndexForLocked(lockID)]
	ex, err := srv.ExportLock(lockID)
	if err != nil {
		return rebalance.Report{}, err
	}
	rollback := func() {
		if err := srv.ImportLock(lockID, ex.Banks); err != nil {
			panic(fmt.Sprintf("ctrlplane: rollback of lock %d failed: %v", lockID, err))
		}
	}
	banks, _ := c.bankGeometryLocked()
	if len(ex.Banks) > banks {
		rollback()
		return rebalance.Report{}, fmt.Errorf("ctrlplane: lock %d has %d banks, switch has %d", lockID, len(ex.Banks), banks)
	}
	per, extra := slots/uint64(banks), slots%uint64(banks)
	need := make([]uint64, banks)
	for b := range need {
		need[b] = per
		if uint64(b) < extra {
			need[b]++
		}
		// The wire format cannot express an empty region, and a bank's
		// live queue must fit whole.
		if need[b] == 0 {
			need[b] = 1
		}
		if b < len(ex.Banks) && uint64(len(ex.Banks[b])) > need[b] {
			need[b] = uint64(len(ex.Banks[b]))
		}
	}
	regions, err := c.allocRegionsLocked(need)
	if err != nil {
		rollback()
		return rebalance.Report{}, err
	}
	// Rebase a copy: the original stays valid (on the server's clock) for
	// rollback if the chain refuses the promote.
	rep := rebalance.Report{LockID: lockID, ToSwitch: true}
	headNow := c.members[0].NowNs()
	rebased := make([][]lockserver.ExportEntry, banks)
	for b := 0; b < banks && b < len(ex.Banks); b++ {
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
		rollback()
		return rebalance.Report{}, err
	}
	c.regions[lockID] = regions
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
	if victim < 0 || victim >= len(c.servers) || target < 0 || target >= len(c.servers) {
		return fmt.Errorf("ctrlplane: drain %d -> %d with %d servers", victim, target, len(c.servers))
	}
	if victim == target {
		return fmt.Errorf("ctrlplane: server %d cannot drain to itself", victim)
	}
	// Follow the target's own redirects and refuse a cycle.
	resolved := target
	for n := 0; n < len(c.servers); n++ {
		t, ok := c.redirect[resolved]
		if !ok {
			break
		}
		resolved = t
	}
	if resolved == victim {
		return fmt.Errorf("ctrlplane: drain %d -> %d forms a redirect cycle", victim, target)
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
	c.redirect[victim] = resolved
	return nil
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
	resolve := func(i int) int {
		for n := 0; n < len(grown); n++ {
			t, ok := c.redirect[i]
			if !ok {
				return i
			}
			i = t
		}
		return i
	}
	for i, from := range c.servers {
		if resolve(i) != i {
			continue // drained: owns nothing
		}
		owned := from.OwnedLocks()
		sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
		for _, id := range owned {
			home := resolve(lockserver.RSSCore(id, len(grown)))
			if home == i {
				continue
			}
			if err := moveServerToServer(from, grown[home], id); err != nil {
				return fmt.Errorf("ctrlplane: rehash lock %d: %w", id, err)
			}
		}
		for _, id := range from.OverflowLocks() {
			home := resolve(lockserver.RSSCore(id, len(grown)))
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
	c.servers = grown
	return nil
}
