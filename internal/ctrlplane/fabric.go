package ctrlplane

import (
	"fmt"
	"sort"

	"netlock/internal/lockserver"
	"netlock/internal/wire"
)

// Rack-side fabric support: a multi-rack fabric (internal/fabric) treats
// each rack's Controller as the unit of shard ownership. The fabric
// controller installs the shard map and fences here chain-wide, and moves
// a shard between racks by exporting every matching lock's live state from
// the source rack and importing it — leases rebased, switch client tables
// seeded — at the destination.

// SetShardMap installs the fabric shard map and this rack's index on every
// chain member, so a promoted head filters ingress identically.
func (c *Controller) SetShardMap(m *wire.ShardMap, selfRack int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mem := range c.members {
		mem.SetShardMap(m, selfRack)
	}
}

// SetShardFence fences or unfences one shard chain-wide: while fenced, the
// head drops client ops for the shard's locks (the fabric controller moves
// the shard's state in the window).
func (c *Controller) SetShardFence(shard uint32, on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mem := range c.members {
		mem.SetShardFence(shard, on)
	}
}

// ReleasesDrained reports whether no forwarded-but-unacked client release
// remains at the head for locks matching the predicate. The fabric
// controller polls this after fencing a shard; over the reliable in-rack
// fabric the count drains monotonically, and export is safe once it hits
// zero (no release is in flight toward a server).
func (c *Controller) ReleasesDrained(match func(uint32) bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[0].PendingReleases(match) == 0
}

// ExportShard removes every lock matching the predicate from this rack and
// returns its live state, ascending by lock. Switch-resident matching
// locks are first demoted to their home servers (the chain exports and
// evicts them at one op-stream position), then each server's matching
// locks are exported — holders, waiters, and q2 overflow residue alike —
// and finally every chain member's client tables are purged so the source
// rack stops speaking for the moved locks. Callers fence the shard (and
// drain pending releases) first, so no new state lands between the
// snapshot and the purge.
func (c *Controller) ExportShard(match func(uint32) bool) ([]wire.LockState, error) {
	for _, id := range c.ResidentLocks() {
		if match(id) {
			if _, err := c.MoveToServer(id); err != nil {
				return nil, fmt.Errorf("ctrlplane: demote lock %d for export: %w", id, err)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.LockState
	for _, srv := range c.servers {
		var err error
		srv.WithLockServer(func(ls *lockserver.Server) {
			for _, id := range ls.CtrlOwnedLocks() {
				if !match(id) {
					continue
				}
				var st wire.LockState
				if st, err = ls.CtrlExportLock(id); err != nil {
					err = fmt.Errorf("ctrlplane: export lock %d: %w", id, err)
					return
				}
				out = append(out, st)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LockID < out[j].LockID })
	for _, m := range c.members {
		m.PurgeClientState(match)
	}
	return out, nil
}

// ImportShard installs exported lock state into this rack: each lock lands
// on its home server (primed first, so a racing request bounces instead of
// adopting the lock), leases are rebased onto the destination clock, and
// every chain member's client tables are seeded — granted entries into the
// grant cache so their releases run the data plane exactly once, waiters
// into the pending table so their grants are delivered. Callers flip the
// shard map only after this returns, so the state is fully home before any
// client is routed here.
func (c *Controller) ImportShard(states []wire.LockState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range states {
		if len(c.servers) == 0 {
			return fmt.Errorf("ctrlplane: no lock server to import lock %d", st.LockID)
		}
		srv := c.servers[c.route.Home(st.LockID)]
		srv.WithLockServer(func(ls *lockserver.Server) { ls.CtrlPrepareImport(st.LockID) })
		st, err := importLock(srv, st)
		if err != nil {
			return fmt.Errorf("ctrlplane: import lock %d: %w", st.LockID, err)
		}
		for _, bank := range st.Banks {
			for i := range bank {
				for _, m := range c.members {
					m.ImportClientState(bank[i].Granted, &bank[i].Hdr, bank[i].LeaseNs)
				}
			}
		}
	}
	return nil
}
