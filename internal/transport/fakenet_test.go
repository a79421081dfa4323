package transport_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netlock"
	"netlock/internal/check"
	"netlock/internal/ctrlplane"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

// The chaos network itself lives in chaosnet.go (it is a first-class
// Network implementation, shared with internal/scenario and cmd/loadgen);
// these tests drive the full transport stack through it, with racks built
// the way every consumer builds them: through ctrlplane.Topology. Chain
// lengths 1-3 all run here — the conformance invariants are
// replication-agnostic.

const timeout = 5 * time.Second

func dpConfig() switchdp.Config {
	return switchdp.Config{MaxLocks: 64, TotalSlots: 256, Priorities: 1}
}

// recorder serializes trace events into the checker. Its mutex defines the
// event order the checker sees; the recording discipline (EvAcquire after
// submit but before Wait, EvGrant after Wait returns, EvRelease before the
// release is handed to the client) makes that order sound for safety
// checking.
type recorder struct {
	mu   sync.Mutex
	ck   *check.Checker
	viol *check.Violation
}

func (r *recorder) observe(e check.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.viol != nil {
		return
	}
	r.viol = r.ck.Observe(e)
}

// conformanceIters reports how many seeds to sweep: the default
// check.Seeds() sweep, widened to NETLOCK_FAKENET_ITERS sequential seeds
// when that env var is set (CI runs 1000 under -race). A pinned
// -netlock.seed always wins.
func conformanceSeeds() (seeds []int64, quick bool) {
	if s, ok := check.ReplaySeed(); ok {
		return []int64{s}, false
	}
	if v := os.Getenv("NETLOCK_FAKENET_ITERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			for i := 0; i < n; i++ {
				seeds = append(seeds, int64(i+1))
			}
			return seeds, true
		}
	}
	return check.Seeds(), false
}

// TestFakenetConformance drives a full client->switch->server rack over
// the chaotic fake network — drops, duplicates, and reordering delays on
// the client edge — and validates every surviving grant trace against the
// safety checker: mutual exclusion, no phantom or duplicate grants,
// conservation at quiescence. Locks span switch-resident queues small
// enough to overflow (exercising q1/q2) and server-owned locks, and the
// switch plane is a replication chain whose length varies with the seed.
func TestFakenetConformance(t *testing.T) {
	seeds, quick := conformanceSeeds()
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConformance(t, seed, quick)
		})
	}
}

func runConformance(t *testing.T, seed int64, quick bool) {
	// Four switch-resident locks with queues small enough that contention
	// overflows to the servers; locks 5..10 stay server-owned.
	var switchLocks []ctrlplane.SwitchLock
	for id := uint32(1); id <= 4; id++ {
		switchLocks = append(switchLocks, ctrlplane.SwitchLock{ID: id, Slots: 2})
	}
	tp, err := ctrlplane.New(ctrlplane.Config{
		Switches:    1 + int(seed%3),
		Servers:     2,
		DataPlane:   switchdp.Config{MaxLocks: 8, TotalSlots: 32, Priorities: 1},
		Chaos:       &transport.ChaosConfig{Seed: seed, Drop: 0.15, Dup: 0.10, Delay: 0.25},
		SwitchLocks: switchLocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	locks := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

	rec := &recorder{ck: check.NewChecker()}
	// Overflow buffering legally reorders grants across priorities/modes
	// (§4.3), so only the safety invariants apply.
	rec.ck.CheckPriority = false

	nClients, workersPer, opsPer := 3, 2, 12
	if quick {
		nClients, workersPer, opsPer = 2, 2, 6
	}

	var clients []*transport.Client
	for i := 0; i < nClients; i++ {
		c, err := tp.NewClient(transport.ClientConfig{
			RetryInterval: 15 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for ci, c := range clients {
		for w := 0; w < workersPer; w++ {
			wg.Add(1)
			go func(c *transport.Client, id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
				for op := 0; op < opsPer; op++ {
					lock := locks[rng.Intn(len(locks))]
					excl := rng.Intn(100) < 60
					mode := netlock.Shared
					if excl {
						mode = netlock.Exclusive
					}
					a, err := c.AcquireAsync(ctx, lock, mode)
					if err != nil {
						t.Errorf("worker %d: submit: %v (replay: %s)", id, err, check.ReplayArgs(seed))
						return
					}
					rec.observe(check.Event{Kind: check.EvAcquire, Lock: lock, Txn: a.Txn(), Excl: excl})
					g, err := a.Wait(ctx)
					if err != nil {
						t.Errorf("worker %d: acquire lock %d: %v (replay: %s)", id, lock, err, check.ReplayArgs(seed))
						return
					}
					rec.observe(check.Event{Kind: check.EvGrant, Lock: lock, Txn: g.Txn(), Excl: excl})
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					rec.observe(check.Event{Kind: check.EvRelease, Lock: lock, Txn: g.Txn(), Excl: excl})
					if rng.Intn(2) == 0 {
						g.Release()
					} else if err := g.ReleaseWait(ctx); err != nil {
						t.Errorf("worker %d: release lock %d: %v (replay: %s)", id, lock, err, check.ReplayArgs(seed))
						return
					}
				}
			}(c, ci*workersPer+w)
		}
	}
	wg.Wait()
	// Quiesce the rack (clients, then switches, then servers) before the
	// chaos drain: the switch sweep keeps re-sending un-released grants
	// (e.g. for just-closed clients), and a send entering the chaos edge
	// concurrently with the drain would race the WaitGroup.
	tp.Close()

	rec.mu.Lock()
	viol := rec.viol
	rec.mu.Unlock()
	if viol != nil {
		t.Fatalf("trace violation: %v (replay: %s)", viol, check.ReplayArgs(seed))
	}
	if v := rec.ck.Quiesce(); v != nil {
		t.Fatalf("quiescence: %v (replay: %s)", v, check.ReplayArgs(seed))
	}
	grants, _, releases := rec.ck.Stats()
	want := nClients * workersPer * opsPer
	if t.Failed() {
		return
	}
	if grants != want || releases != want {
		t.Fatalf("vacuous run: %d grants, %d releases, want %d each (replay: %s)",
			grants, releases, want, check.ReplayArgs(seed))
	}
}

// frameHasOp reports whether a datagram (bare header or batch frame)
// carries an op of the given kind.
func frameHasOp(data []byte, op wire.Op) bool {
	var h wire.Header
	if wire.IsChain(data) {
		return false
	}
	if wire.IsBatch(data) {
		var br wire.BatchReader
		if br.Reset(data) != nil {
			return false
		}
		for {
			ok, err := br.Next(&h)
			if err != nil || !ok {
				return false
			}
			if h.Op == op {
				return true
			}
		}
	}
	return h.DecodeFromBytes(data) == nil && h.Op == op
}

// TestReleaseRetransmitAfterLoss is the leaked-lock regression: with the
// old fire-and-forget release, dropping the release datagram stranded the
// lock until lease expiry (forever, without a lease). The client must now
// retransmit the release until the end-to-end ack lands.
func TestReleaseRetransmitAfterLoss(t *testing.T) {
	tp, err := ctrlplane.New(ctrlplane.Config{
		Servers:     1,
		DataPlane:   dpConfig(),
		Chaos:       &transport.ChaosConfig{Seed: 1},
		SwitchLocks: []ctrlplane.SwitchLock{{ID: 7, Slots: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	var dropped atomic.Int32
	tp.Chaos().SetFilter(func(data []byte, from, to netip.AddrPort) bool {
		if frameHasOp(data, wire.OpRelease) && dropped.CompareAndSwap(0, 1) {
			return true
		}
		return false
	})

	c, err := tp.NewClient(transport.ClientConfig{RetryInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	g, err := c.Acquire(ctx, 7, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	g.Release() // first release datagram is eaten by the filter

	// A second exclusive acquire only succeeds once the retransmitted
	// release lands; fire-and-forget would hang here forever.
	g2, err := c.Acquire(ctx, 7, netlock.Exclusive)
	if err != nil {
		t.Fatalf("acquire after lossy release: %v", err)
	}
	if dropped.Load() != 1 {
		t.Fatalf("filter never saw a release datagram")
	}
	if err := g2.ReleaseWait(ctx); err != nil {
		t.Fatalf("ReleaseWait: %v", err)
	}
}

// TestReleaseAckIdempotent: a duplicated release datagram (or a
// retransmit racing its own ack) must ack idempotently, never dequeue a
// second holder. The duplicating chaos network plus a waiter pair on one
// lock covers the double-release hazard directly.
func TestReleaseAckIdempotent(t *testing.T) {
	tp, err := ctrlplane.New(ctrlplane.Config{
		Servers:   1,
		DataPlane: dpConfig(),
		// Duplicate every client-edge datagram.
		Chaos:       &transport.ChaosConfig{Seed: 3, Dup: 1.0},
		SwitchLocks: []ctrlplane.SwitchLock{{ID: 9, Slots: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	c, err := tp.NewClient(transport.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	g1, err := c.Acquire(ctx, 9, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	// Queue a second exclusive waiter, then release. If the duplicated
	// release dequeued the waiter's fresh grant too, g2 would be granted
	// while a third acquire also succeeds — instead the third must block
	// until g2 releases.
	a2, err := c.AcquireAsync(ctx, 9, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.ReleaseWait(ctx); err != nil {
		t.Fatal(err)
	}
	g2, err := a2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	short, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	if _, err := c.Acquire(short, 9, netlock.Exclusive); !errors.Is(err, netlock.ErrTimeout) {
		t.Fatalf("third acquire while g2 held: err=%v, want timeout", err)
	}
	if err := g2.ReleaseWait(ctx); err != nil {
		t.Fatal(err)
	}
}
