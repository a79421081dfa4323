package fabric

import (
	"context"
	"testing"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

const timeout = 10 * time.Second

func build(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	if cfg.Rack.DataPlane.MaxLocks == 0 {
		cfg.Rack.DataPlane = switchdp.Config{MaxLocks: 64, TotalSlots: 256, Priorities: 1}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func fastClient(t *testing.T, f *Fabric) *transport.Client {
	t.Helper()
	c, err := f.NewClient(transport.ClientConfig{RetryInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// lockOn returns a lock ID homed on the given rack.
func lockOn(t *testing.T, m *wire.ShardMap, rack int) uint32 {
	t.Helper()
	for id := uint32(1); id < 10000; id++ {
		if m.RackOf(id) == rack {
			return id
		}
	}
	t.Fatalf("no lock on rack %d in 10000 IDs", rack)
	return 0
}

func acquire(t *testing.T, c *transport.Client, lockID uint32) *transport.Grant {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	g, err := c.Acquire(ctx, lockID, netlock.Exclusive)
	if err != nil {
		t.Fatalf("acquire %d: %v", lockID, err)
	}
	return g
}

func release(t *testing.T, g *transport.Grant) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := g.ReleaseWait(ctx); err != nil {
		t.Fatalf("release lock %d: %v", g.LockID(), err)
	}
}

// TestFabricBringup: a 2-rack fabric routes each lock to its map-assigned
// rack, with no cross-rack traffic in the steady state.
func TestFabricBringup(t *testing.T) {
	f := build(t, Config{Racks: 2, Shards: 8})
	c := fastClient(t, f)
	m := f.Controller().Map()
	if m.Epoch != 1 {
		t.Fatalf("initial map epoch = %d, want 1", m.Epoch)
	}
	for rack := 0; rack < 2; rack++ {
		g := acquire(t, c, lockOn(t, m, rack))
		if g.Rack() != rack {
			t.Fatalf("lock homed on rack %d granted from rack %d", rack, g.Rack())
		}
		release(t, g)
	}
}

// TestFabricChaosBringup: the racks share one lossy chaos network;
// in-rack links stay reliable, client traffic retries through the loss.
func TestFabricChaosBringup(t *testing.T) {
	f := build(t, Config{
		Racks: 2,
		Rack:  ctrlplane.Config{Switches: 2},
		Chaos: &transport.ChaosConfig{Seed: 7, Drop: 0.05, Dup: 0.05},
	})
	c := fastClient(t, f)
	m := f.Controller().Map()
	for i := 0; i < 8; i++ {
		release(t, acquire(t, c, lockOn(t, m, i%2)+uint32(i)*0)) // same two locks, alternating racks
	}
}

// TestRehomeLiveState is the heart of the protocol: a shard moves racks
// while one client HOLDS a lock in it and another WAITS on the same lock.
// The hold must release exactly once (at the new rack), the waiter must be
// granted exactly once (by the new rack), and subsequent traffic routes to
// the new home.
func TestRehomeLiveState(t *testing.T) {
	f := build(t, Config{Racks: 2, Rack: ctrlplane.Config{Switches: 2}})
	m := f.Controller().Map()
	lock := lockOn(t, m, 0)
	shard := m.ShardOf(lock)

	holder := fastClient(t, f)
	g := acquire(t, holder, lock)
	if g.Rack() != 0 {
		t.Fatalf("granted from rack %d, want 0", g.Rack())
	}
	waiter := fastClient(t, f)
	wctx, wcancel := context.WithTimeout(context.Background(), timeout)
	defer wcancel()
	wa, err := waiter.AcquireAsync(wctx, lock, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for f.Rack(0).Head().Snapshot().PendingAcquires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued at rack 0")
		}
		time.Sleep(time.Millisecond)
	}

	if err := f.Controller().Rehome(shard, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.Controller().Epoch(); got != 2 {
		t.Fatalf("map epoch after rehome = %d, want 2", got)
	}
	hist := f.Controller().History()
	if len(hist) != 1 || hist[0] != (Rehome{Shard: shard, From: 0, To: 1, Epoch: 2, Locks: 1}) {
		t.Fatalf("history = %+v", hist)
	}

	// The holder's release bounces off rack 0 (OpWrongRack + new map) and
	// completes at rack 1, which unblocks the waiter — whose grant must
	// come from rack 1.
	release(t, g)
	wg, err := wa.Wait(wctx)
	if err != nil {
		t.Fatalf("waiter after rehome: %v", err)
	}
	if wg.Rack() != 1 {
		t.Fatalf("waiter granted from rack %d, want 1", wg.Rack())
	}
	release(t, wg)

	// Fresh traffic routes straight to the new home.
	g2 := acquire(t, holder, lock)
	if g2.Rack() != 1 {
		t.Fatalf("post-rehome grant from rack %d, want 1", g2.Rack())
	}
	release(t, g2)

	// No lock state may remain at the source.
	for _, srv := range f.Rack(0).Servers() {
		var owns bool
		srv.WithLockServer(func(ls *lockserver.Server) { owns = ls.CtrlOwns(lock) })
		if owns {
			t.Fatal("rack 0 still owns the re-homed lock")
		}
	}
}

// TestRehomeSwitchResident: a switch-resident lock is demoted out of the
// source data plane as part of the export and serves from the destination
// afterwards.
func TestRehomeSwitchResident(t *testing.T) {
	f := build(t, Config{Racks: 2})
	m := f.Controller().Map()
	lock := lockOn(t, m, 0)
	if err := f.Rack(0).Controller().InstallLock(lock, 8); err != nil {
		t.Fatal(err)
	}
	c := fastClient(t, f)
	g := acquire(t, c, lock)
	if err := f.Controller().Rehome(m.ShardOf(lock), 1); err != nil {
		t.Fatal(err)
	}
	release(t, g)
	g2 := acquire(t, c, lock)
	if g2.Rack() != 1 {
		t.Fatalf("post-rehome grant from rack %d, want 1", g2.Rack())
	}
	release(t, g2)
	if n := f.Rack(0).Head().Snapshot().ResidentLocks; n != 0 {
		t.Fatalf("source still has %d resident locks", n)
	}
}

// TestFailRack: killing a rack's head must not take the shard down — the
// chain promotes a successor that inherited the shard map, and in-flight
// clients fail over to it.
func TestFailRack(t *testing.T) {
	f := build(t, Config{Racks: 2, Rack: ctrlplane.Config{Switches: 2}})
	m := f.Controller().Map()
	lock := lockOn(t, m, 0)
	c := fastClient(t, f)
	release(t, acquire(t, c, lock))

	if err := f.Controller().FailRack(0); err != nil {
		t.Fatal(err)
	}
	g := acquire(t, c, lock) // retries rotate onto the promoted head
	if g.Rack() != 0 {
		t.Fatalf("granted from rack %d, want 0 (same rack, new head)", g.Rack())
	}
	release(t, g)
	// The other rack is untouched.
	release(t, acquire(t, c, lockOn(t, m, 1)))
}

// TestBalanceTick: demand measured on one rack only should trigger a
// re-home of its hottest shard onto the idle rack.
func TestBalanceTick(t *testing.T) {
	f := build(t, Config{Racks: 2, Shards: 8})
	m := f.Controller().Map()
	lock := lockOn(t, m, 0)
	c := fastClient(t, f)
	for i := 0; i < 10; i++ {
		release(t, acquire(t, c, lock))
	}
	mv, err := f.Controller().BalanceTick(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mv == nil {
		t.Fatal("BalanceTick saw one-sided load and did nothing")
	}
	if mv.Shard != m.ShardOf(lock) || mv.To != 1 {
		t.Fatalf("moved shard %d to rack %d, want shard %d to rack 1", mv.Shard, mv.To, m.ShardOf(lock))
	}
	if got := f.Controller().Map().RackOf(lock); got != 1 {
		t.Fatalf("lock homes on rack %d after balance, want 1", got)
	}
	// A balanced (here: idle) fabric must not churn.
	mv, err = f.Controller().BalanceTick(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mv != nil {
		t.Fatalf("idle fabric moved shard %d", mv.Shard)
	}
}
