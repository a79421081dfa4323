package netlock

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netlock/internal/check"
	"netlock/internal/wire"
)

// Sharding must be a pure partitioning: every lock lives wholly inside one
// shard, so for any scripted workload a 1-shard and an N-shard manager must
// grant exactly the same transactions for each lock, in the same per-step
// batches. (Global interleaving across locks is allowed to differ — that is
// the parallelism being bought.) This is the shard-boundary property test:
// it drives both managers in lockstep through an identical script, draining
// grant notifications after every step, and diffs the per-lock histories.

// scriptedClient submits acquires without blocking by registering the
// waiter channel and injecting the packet directly (the synchronous core of
// Manager.Acquire), so one goroutine can keep many requests in flight and
// observe grants step by step.
type scriptedClient struct {
	m     *Manager
	chans map[uint64]chan wire.Header
	meta  map[uint64]wire.Header // submitted header by txn, for release
}

func newScriptedClient(m *Manager) *scriptedClient {
	return &scriptedClient{
		m:     m,
		chans: make(map[uint64]chan wire.Header),
		meta:  make(map[uint64]wire.Header),
	}
}

func (c *scriptedClient) submit(txn uint64, lock uint32, excl bool, prio uint8) {
	mode := wire.Shared
	if excl {
		mode = wire.Exclusive
	}
	h := wire.Header{
		Op:       wire.OpAcquire,
		Mode:     mode,
		LockID:   lock,
		TxnID:    txn,
		ClientIP: localClientIP,
		Priority: prio,
	}
	ch := make(chan wire.Header, 1)
	c.chans[txn] = ch
	c.meta[txn] = h
	sh := c.m.shardFor(lock)
	sh.mu.Lock()
	sh.waiters[waiterKey{lock, txn}] = ch
	sh.inject(&h)
	sh.mu.Unlock()
}

func (c *scriptedClient) release(txn uint64) {
	h := c.meta[txn]
	h.Op = wire.OpRelease
	sh := c.m.shardFor(h.LockID)
	sh.mu.Lock()
	sh.inject(&h)
	sh.mu.Unlock()
}

// drain collects every grant delivered so far: per lock, the sorted set of
// newly granted txns. Sorting makes within-step batches comparable as sets;
// cross-step ordering is preserved by the caller.
func (c *scriptedClient) drain() map[uint32][]uint64 {
	out := make(map[uint32][]uint64)
	for txn, ch := range c.chans {
		select {
		case h := <-ch:
			delete(c.chans, txn)
			out[h.LockID] = append(out[h.LockID], txn)
		default:
		}
	}
	for _, txns := range out {
		sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	}
	return out
}

func TestShardEquivalence(t *testing.T) {
	for _, seed := range check.SeedsN(4) {
		for _, shards := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("seed%d/shards%d", seed, shards), func(t *testing.T) {
				runShardEquivalence(t, seed, shards)
			})
		}
	}
}

func runShardEquivalence(t *testing.T, seed int64, shards int) {
	cfg := Config{Servers: 2, Priorities: 2}
	a := New(func() Config { c := cfg; c.Shards = 1; return c }())
	b := New(func() Config { c := cfg; c.Shards = shards; return c }())
	defer a.Close()
	defer b.Close()
	ca, cb := newScriptedClient(a), newScriptedClient(b)

	rng := rand.New(rand.NewSource(seed))
	const steps = 400
	const locks = 9
	var nextTxn uint64
	granted := make(map[uint32][]uint64) // per lock, currently held txns (from manager a's view)

	for step := 0; step < steps; step++ {
		switch {
		case step > 0 && step%50 == 0:
			// Interleave the rebalancer so locks move live
			// switch<->server mid-script in both managers.
			a.RebalanceTick()
			b.RebalanceTick()
		case rng.Float64() < 0.55 || len(granted) == 0:
			nextTxn++
			lock := uint32(rng.Intn(locks) + 1)
			excl := rng.Float64() < 0.5
			prio := uint8(rng.Intn(cfg.Priorities))
			ca.submit(nextTxn, lock, excl, prio)
			cb.submit(nextTxn, lock, excl, prio)
		default:
			// Release a random currently-granted txn (chosen from a's
			// view; if b's state diverged the batch diff below fails).
			lockIDs := make([]uint32, 0, len(granted))
			for l := range granted {
				lockIDs = append(lockIDs, l)
			}
			sort.Slice(lockIDs, func(i, j int) bool { return lockIDs[i] < lockIDs[j] })
			l := lockIDs[rng.Intn(len(lockIDs))]
			held := granted[l]
			txn := held[rng.Intn(len(held))]
			ca.release(txn)
			cb.release(txn)
			if len(held) == 1 {
				delete(granted, l)
			} else {
				granted[l] = append(held[:0:0], held...)
				for i, v := range granted[l] {
					if v == txn {
						granted[l] = append(granted[l][:i], granted[l][i+1:]...)
						break
					}
				}
			}
		}

		ga, gb := ca.drain(), cb.drain()
		if err := diffBatches(ga, gb); err != nil {
			t.Fatalf("step %d (replay: %s): %v", step, check.ReplayArgs(seed), err)
		}
		for l, txns := range ga {
			granted[l] = append(granted[l], txns...)
		}
	}

	if a.RebalanceStats().Promotions == 0 || b.RebalanceStats().Promotions == 0 {
		t.Fatalf("no live move happened mid-script: 1-shard %+v, %d-shard %+v",
			a.RebalanceStats(), shards, b.RebalanceStats())
	}
	// Both managers must also agree on who is still waiting at the end.
	if len(ca.chans) != len(cb.chans) {
		t.Fatalf("pending waiters diverge: 1-shard=%d %d-shard=%d (replay: %s)",
			len(ca.chans), shards, len(cb.chans), check.ReplayArgs(seed))
	}
	for txn := range ca.chans {
		if _, ok := cb.chans[txn]; !ok {
			t.Fatalf("txn %d pending on 1-shard but granted on %d-shard (replay: %s)",
				txn, shards, check.ReplayArgs(seed))
		}
	}
}

func diffBatches(a, b map[uint32][]uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("grant batches diverge: 1-shard=%v N-shard=%v", a, b)
	}
	for l, ta := range a {
		tb, ok := b[l]
		if !ok || len(ta) != len(tb) {
			return fmt.Errorf("lock %d grants diverge: 1-shard=%v N-shard=%v", l, ta, tb)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return fmt.Errorf("lock %d grants diverge: 1-shard=%v N-shard=%v", l, ta, tb)
			}
		}
	}
	return nil
}
