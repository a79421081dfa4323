package netlock

import (
	"fmt"
	"time"

	"netlock/internal/memalloc"
	"netlock/internal/rebalance"
)

// Embedded-plane rebalancer parity: the same internal/rebalance loop that
// drives the UDP rack's ctrlplane.Controller drives each shard's
// core.Manager here, through the shardMover adapter. It is the embedded
// plane's only placement loop. One loop per shard — switch capacity is
// statically partitioned (Config.SwitchSlots is divided evenly), so each
// shard plans over its own slice of the register space and there is no
// cross-shard allocation decision to coordinate.

// RebalanceMove reports one live move, for Config.OnRebalanceMove
// observers (typically a test oracle validating the migrated queue state)
// and the explicit MoveToSwitch/MoveToServer calls. Granted and Waiting
// list the transactions that crossed the residency boundary holding the
// lock and waiting for it, in queue order.
type RebalanceMove = rebalance.Report

// RebalanceStats aggregates the per-shard rebalance loop counters.
type RebalanceStats struct {
	Ticks      uint64
	Planned    uint64
	Promotions uint64
	Demotions  uint64
	Failures   uint64
}

// shardMover adapts one shard's core.Manager to rebalance.Mover. Each
// method takes the shard mutex for exactly its own duration, so the loop's
// measure-plan-move round interleaves with live traffic move by move rather
// than stopping the shard for the whole tick.
type shardMover struct {
	sh *shard
}

func (sm *shardMover) MeasureDemands(windowSec float64) []memalloc.Demand {
	sm.sh.mu.Lock()
	defer sm.sh.mu.Unlock()
	if sm.sh.closed {
		return nil
	}
	return sm.sh.mgr.MeasureDemands(windowSec)
}

func (sm *shardMover) Placement() map[uint32]uint64 {
	sm.sh.mu.Lock()
	defer sm.sh.mu.Unlock()
	if sm.sh.closed {
		return nil
	}
	return sm.sh.mgr.Placement()
}

func (sm *shardMover) SwitchCapacity() uint64 {
	sm.sh.mu.Lock()
	defer sm.sh.mu.Unlock()
	if sm.sh.closed {
		return 0
	}
	return sm.sh.mgr.SwitchCapacity()
}

func (sm *shardMover) MoveToSwitch(lockID uint32, slots uint64) (rebalance.Report, error) {
	sm.sh.mu.Lock()
	defer sm.sh.mu.Unlock()
	if sm.sh.closed {
		return rebalance.Report{}, ErrClosed
	}
	return sm.sh.mgr.MoveToSwitch(lockID, slots)
}

func (sm *shardMover) MoveToServer(lockID uint32) (rebalance.Report, error) {
	sm.sh.mu.Lock()
	defer sm.sh.mu.Unlock()
	if sm.sh.closed {
		return rebalance.Report{}, ErrClosed
	}
	rep, emits, err := sm.sh.mgr.MoveToServer(lockID)
	if err == nil {
		// q2 replay: requests the server buffered while the lock was
		// switch-resident settle behind the migrated queue.
		sm.sh.routeServerEmits(emits)
	}
	return rep, err
}

// initRebalance builds one rebalance loop per shard. Called from New.
func (m *Manager) initRebalance() {
	for _, sh := range m.shards {
		rcfg := rebalance.Config{
			Interval: m.cfg.RebalanceInterval,
			Budget:   m.cfg.RebalanceBudget,
			OnMove:   m.cfg.OnRebalanceMove,
		}
		sh.rebal = rebalance.New(&shardMover{sh: sh}, rcfg)
	}
}

// RebalanceTick runs one synchronous rebalance round on every shard —
// measure the demand window, re-solve the placement knapsack, execute the
// planned live moves — and reports how many moves completed. Safe to call
// concurrently with traffic; must not be called from OnRebalanceMove.
func (m *Manager) RebalanceTick() (moves int) {
	if m.closed.Load() {
		return 0
	}
	for _, sh := range m.shards {
		moves += sh.rebal.Tick()
	}
	return moves
}

// RebalanceStats returns the loop counters summed across shards.
func (m *Manager) RebalanceStats() RebalanceStats {
	var out RebalanceStats
	for _, sh := range m.shards {
		st := sh.rebal.Stats()
		out.Ticks += st.Ticks
		out.Planned += st.Planned
		out.Promotions += st.Promotions
		out.Demotions += st.Demotions
		out.Failures += st.Failures
	}
	return out
}

func (m *Manager) rebalanceLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.RebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			m.RebalanceTick()
		}
	}
}

// MoveToSwitch live-promotes a server-owned lock into the switch with the
// given total slot count (split across priority banks), queue state —
// granted bits included — migrating intact. The rebalance loop does this
// automatically; the explicit form serves scenarios and operators.
func (m *Manager) MoveToSwitch(lockID uint32, slots int) (RebalanceMove, error) {
	if m.closed.Load() {
		return RebalanceMove{}, ErrClosed
	}
	if slots < 0 {
		return RebalanceMove{}, fmt.Errorf("netlock: move lock %d: negative slot count", lockID)
	}
	sh := m.shardFor(lockID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return RebalanceMove{}, ErrClosed
	}
	return sh.mgr.MoveToSwitch(lockID, uint64(slots))
}

// MoveToServer live-demotes a switch-resident lock to its home server,
// replaying any overflow requests the server buffered behind the migrated
// queue.
func (m *Manager) MoveToServer(lockID uint32) (RebalanceMove, error) {
	if m.closed.Load() {
		return RebalanceMove{}, ErrClosed
	}
	sh := m.shardFor(lockID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return RebalanceMove{}, ErrClosed
	}
	rep, emits, err := sh.mgr.MoveToServer(lockID)
	if err == nil {
		sh.routeServerEmits(emits)
	}
	return rep, err
}

// AddServer grows every shard's server tier by one and migrates the
// rehashed partition — live, queue state intact — onto the new servers.
// Returns the new logical server index.
func (m *Manager) AddServer() (int, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	m.lockAll()
	defer m.unlockAll()
	idx := 0
	for _, sh := range m.shards {
		if sh.closed {
			return 0, ErrClosed
		}
		i, emits := sh.mgr.AddServer()
		idx = i
		sh.routeServerEmits(emits)
	}
	m.cfg.Servers++
	return idx, nil
}

// DrainServer live-evacuates logical server victim on every shard: owned
// locks and overflow residue move to target, then victim's partition is
// redirected. After a successful drain the victim holds no state and can
// fail (FailServer) without any lock noticing.
func (m *Manager) DrainServer(victim, target int) error {
	if m.closed.Load() {
		return ErrClosed
	}
	m.lockAll()
	defer m.unlockAll()
	var firstErr error
	for _, sh := range m.shards {
		if sh.closed {
			return ErrClosed
		}
		emits, err := sh.mgr.DrainServer(victim, target)
		if err != nil {
			// Validation errors (out of range, self-drain, redirect cycle)
			// are identical across shards; report the first and keep going
			// so the shards stay in lockstep.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sh.routeServerEmits(emits)
	}
	return firstErr
}
