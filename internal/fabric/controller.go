package fabric

import (
	"fmt"
	"sync"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/wire"
)

// drainTimeout bounds the post-fence release drain during a re-home.
const drainTimeout = 10 * time.Second

// Rehome records one completed shard move, for oracles that need to know
// which rack legitimately spoke for a shard at a given map epoch.
type Rehome struct {
	Shard uint32
	From  int
	To    int
	// Epoch is the shard-map epoch the move published — the first epoch
	// under which To is the shard's home.
	Epoch uint64
	// Locks is how many locks moved with live queue state.
	Locks int
}

// Controller owns the fabric's shard map: it is the only writer of map
// epochs, and shards change home only through it. Safe for concurrent use;
// re-homes serialize.
type Controller struct {
	mu      sync.Mutex
	racks   []*ctrlplane.Topology
	m       *wire.ShardMap
	history []Rehome
}

func newController(racks []*ctrlplane.Topology, m *wire.ShardMap) *Controller {
	return &Controller{racks: racks, m: m.Clone()}
}

// Map returns a copy of the current shard map.
func (c *Controller) Map() *wire.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// Epoch returns the current shard-map epoch.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Epoch
}

// History returns the completed re-homes, oldest first.
func (c *Controller) History() []Rehome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Rehome(nil), c.history...)
}

// FailRack kills rack i's chain head; the rack recovers through its own
// chain failover (the promoted head inherits the shard map and fences,
// which were installed chain-wide).
func (c *Controller) FailRack(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.racks) {
		return fmt.Errorf("fabric: fail rack %d of %d", i, len(c.racks))
	}
	return c.racks[i].Controller().FailHead()
}

// Rehome moves one shard's home from its current rack to rack `to`,
// drained shard-at-a-time behind an epoch fence:
//
//  1. fence the shard on the source chain — client ops for its locks are
//     silently dropped (clients keep retrying on their sweep), so from
//     here no new state can form at the source;
//  2. wait for in-flight releases to drain, so the exported queues are
//     quiescent;
//  3. export every matching lock's live state (switch-resident locks are
//     demoted first) and purge the source's client tables — the source
//     no longer speaks for the shard;
//  4. import at the destination: locks land on their home servers with
//     leases rebased, and the destination chain's client tables are
//     seeded so in-flight releases and waiters complete there;
//  5. publish the new map under epoch+1 — destination first (so a
//     bounced client re-routing there is accepted, never ping-ponged),
//     then the bystander racks, the source last;
//  6. unfence the source: retried ops now bounce OpWrongRack carrying
//     the new map, and clients re-route.
//
// The fence plus the single-writer epoch means no transaction observes
// the shard live in two racks: until step 5 only the source's (fenced,
// dropping) chain owns it, after step 5 only the destination's.
func (c *Controller) Rehome(shard uint32, to int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(shard) >= c.m.Shards() {
		return fmt.Errorf("fabric: rehome shard %d of %d", shard, c.m.Shards())
	}
	if to < 0 || to >= len(c.racks) {
		return fmt.Errorf("fabric: rehome to rack %d of %d", to, len(c.racks))
	}
	from := c.m.RackAt(shard)
	if from == to {
		return nil
	}
	src := c.racks[from].Controller()
	dst := c.racks[to].Controller()
	match := func(id uint32) bool { return c.m.ShardOf(id) == shard }

	src.SetShardFence(shard, true)
	deadline := time.Now().Add(drainTimeout)
	for !src.ReleasesDrained(match) {
		if time.Now().After(deadline) {
			src.SetShardFence(shard, false)
			return fmt.Errorf("fabric: shard %d releases did not drain within %v", shard, drainTimeout)
		}
		time.Sleep(time.Millisecond)
	}

	states, err := src.ExportShard(match)
	if err != nil {
		src.SetShardFence(shard, false)
		return fmt.Errorf("fabric: export shard %d: %w", shard, err)
	}
	if err := dst.ImportShard(states); err != nil {
		// The state is out of the source; importing nowhere would lose it.
		// There is no partial-failure path out of ImportShard short of a
		// misconfigured rack, so surface loudly rather than invent one.
		return fmt.Errorf("fabric: import shard %d into rack %d: %w", shard, to, err)
	}

	next := c.m.Clone()
	next.Epoch++
	next.Assign[shard] = uint8(to)
	dst.SetShardMap(next, to)
	for i, tp := range c.racks {
		if i != from && i != to {
			tp.Controller().SetShardMap(next, i)
		}
	}
	src.SetShardMap(next, from)
	src.SetShardFence(shard, false)
	c.m = next
	c.history = append(c.history, Rehome{Shard: shard, From: from, To: to, Epoch: next.Epoch, Locks: len(states)})
	return nil
}

// BalanceTick is the fabric-level rebalance step: it reads every rack's
// per-lock demand gauges over the given window, aggregates them per shard,
// and — when the hottest rack carries more than ratio× the coldest rack's
// load — re-homes the hottest rack's hottest shard onto the coldest rack.
// Returns the move made, or nil when the fabric is balanced (or too idle
// to judge). One shard per tick keeps each move small and lets demand
// re-measure before the next.
func (c *Controller) BalanceTick(windowSec, ratio float64) (*Rehome, error) {
	if ratio < 1 {
		ratio = 1
	}
	c.mu.Lock()
	rackLoad := make([]float64, len(c.racks))
	shardLoad := make(map[uint32]float64)
	for i, tp := range c.racks {
		for _, d := range tp.Controller().MeasureDemands(windowSec) {
			sh := c.m.ShardOf(d.LockID)
			rackLoad[i] += d.Rate
			// Demand gauges are per-rack; a lock's load only counts toward
			// its home shard when measured on its home rack (residue from a
			// just-moved shard should not double-count).
			if c.m.RackAt(sh) == i {
				shardLoad[sh] += d.Rate
			}
		}
	}
	hot, cold := 0, 0
	for i := range rackLoad {
		if rackLoad[i] > rackLoad[hot] {
			hot = i
		}
		if rackLoad[i] < rackLoad[cold] {
			cold = i
		}
	}
	if hot == cold || rackLoad[hot] == 0 || rackLoad[hot] <= ratio*rackLoad[cold] {
		c.mu.Unlock()
		return nil, nil
	}
	var pick uint32
	found := false
	for sh, load := range shardLoad {
		if c.m.RackAt(sh) != hot {
			continue
		}
		if !found || load > shardLoad[pick] || (load == shardLoad[pick] && sh < pick) {
			pick, found = sh, true
		}
	}
	c.mu.Unlock()
	if !found {
		return nil, nil
	}
	if err := c.Rehome(pick, cold); err != nil {
		return nil, err
	}
	mv := Rehome{Shard: pick, From: hot, To: cold}
	c.mu.Lock()
	if n := len(c.history); n > 0 {
		mv = c.history[n-1]
	}
	c.mu.Unlock()
	return &mv, nil
}
