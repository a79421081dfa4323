package ctrlplane

import (
	"context"
	"errors"
	"testing"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// TestApplyPolicyQuotaCut drives a mid-run quota cut through ApplyPolicy
// on a replicated chain and pins the exact counters on both sides of the
// cut: with a zero-refill meter, every acquire before the cut is granted
// (burst tokens) and every acquire after it is rejected, no slack in
// either direction.
func TestApplyPolicyQuotaCut(t *testing.T) {
	reg := obs.New(obs.Config{Stripes: 1})
	cfg := Config{Switches: 2}
	cfg.DataPlane = dpConfig()
	cfg.DataPlane.Isolation = true
	cfg.DataPlane.Obs = reg.Stripe(0)
	// Server-path grants are counted in the lock server, switch-resident
	// ones in the data plane; both feed the same registry.
	cfg.Server.Obs = reg.Stripe(0)
	// PerSec 0: the bucket never refills, so admissions count tokens
	// exactly — 4 burst tokens, 4 grants.
	cfg.Quotas = []TenantQuota{{Tenant: 7, PerSec: 0, Burst: 4}}
	tp := topo(t, cfg)
	c := fastClient(t, tp)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for i := uint32(1); i <= 4; i++ {
		g, err := c.Acquire(ctx, i, netlock.Exclusive, netlock.WithTenant(7))
		if err != nil {
			t.Fatalf("acquire %d within quota: %v", i, err)
		}
		if err := g.ReleaseWait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	epoch, err := tp.Controller().ApplyPolicy([]TenantQuota{{Tenant: 7, PerSec: 0, Burst: 0.5}})
	if err != nil {
		t.Fatalf("ApplyPolicy: %v", err)
	}
	if want := tp.Controller().Epoch(); epoch != want {
		t.Fatalf("policy applied under epoch %d, controller at %d", epoch, want)
	}

	for i := uint32(5); i <= 7; i++ {
		_, err := c.Acquire(ctx, i, netlock.Exclusive, netlock.WithTenant(7))
		if !errors.Is(err, netlock.ErrQuotaExceeded) {
			t.Fatalf("acquire %d after quota cut: %v, want ErrQuotaExceeded", i, err)
		}
	}

	// Exact obs-vs-trace equality: 4 tenant-7 grants, and exactly 3
	// meter rejects on the head (chain mode meters once, at ingress).
	sn := reg.Snapshot()
	if got := sn.TenantGrants[7]; got != 4 {
		t.Fatalf("obs tenant grants = %d, want 4", got)
	}
	if got := sn.Counter(obs.CtrGrants); got != 4 {
		t.Fatalf("obs grants = %d, want 4", got)
	}
	var rejects uint64
	tp.Head().WithDataPlane(func(dp *switchdp.Switch) {
		rejects = dp.Stats().Rejects
	})
	if rejects != 3 {
		t.Fatalf("head meter rejects = %d, want 3", rejects)
	}

	// A bad batch must not land anywhere: the meter panics on burst <= 0,
	// so ApplyPolicy validates the whole batch up front.
	if _, err := tp.Controller().ApplyPolicy([]TenantQuota{{Tenant: 1, Burst: 1}, {Tenant: 2, Burst: 0}}); err == nil {
		t.Fatal("ApplyPolicy accepted a zero-burst quota")
	}
}

// TestShardExportImport moves one shard's live state — a holder, a waiter,
// and a switch-resident lock — from one rack to another and checks both
// sides: the source keeps nothing (no lock ownership, no client-table
// entries for the shard), the destination owns everything with queue order
// and grant status intact.
func TestShardExportImport(t *testing.T) {
	m, err := wire.NewShardMap(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := topo(t, Config{Switches: 2})
	dst := topo(t, Config{Switches: 2})
	src.Controller().SetShardMap(m, 0)
	dst.Controller().SetShardMap(m, 1)

	// A lock on rack 0's side of the map, with live state: one holder and
	// one queued waiter.
	var lock uint32
	for lock = 1; m.RackOf(lock) != 0; lock++ {
	}
	shard := m.ShardOf(lock)
	match := func(id uint32) bool { return m.ShardOf(id) == shard }

	holder := fastClient(t, src)
	g := acquire(t, holder, lock)
	_ = g
	waiter := fastClient(t, src)
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wa, err := waiter.AcquireAsync(wctx, lock, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	// The head records the waiter before forwarding it, so wait for the
	// home server's queue too: exporting earlier would miss the waiter.
	home := src.Servers()[src.Controller().ServerIndexFor(lock)]
	deadline := time.Now().Add(timeout)
	for depth := 0; src.Head().Snapshot().PendingAcquires == 0 || depth < 2; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued at the source head and server")
		}
		time.Sleep(time.Millisecond)
		home.WithLockServer(func(ls *lockserver.Server) { depth, _ = ls.CtrlQueueDepth(lock) })
	}

	src.Controller().SetShardFence(shard, true)
	for !src.Controller().ReleasesDrained(match) {
		time.Sleep(time.Millisecond)
	}
	states, err := src.Controller().ExportShard(match)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].LockID != lock {
		t.Fatalf("exported %d locks, want lock %d alone", len(states), lock)
	}
	if rep := rebalance.NewReport(states[0], false); len(rep.Granted) != 1 || len(rep.Waiting) != 1 {
		t.Fatalf("exported granted=%v waiting=%v, want holder + waiter", rep.Granted, rep.Waiting)
	}

	// Source keeps nothing: no server owns the lock, no client tables.
	if ownedBy(src.Servers(), lock) {
		t.Fatal("source server still owns the exported lock")
	}
	hs := src.Head().Snapshot()
	if hs.TrackedGrants != 0 || hs.PendingAcquires != 0 {
		t.Fatalf("source head still tracks grants=%d pending=%d", hs.TrackedGrants, hs.PendingAcquires)
	}

	if err := dst.Controller().ImportShard(states); err != nil {
		t.Fatal(err)
	}
	if !ownedBy(dst.Servers(), lock) {
		t.Fatal("destination server does not own the imported lock")
	}
	// The holder's grant entered every destination member's grant cache
	// and the waiter its pending table, so releases and grants complete
	// in the new rack.
	for _, sw := range dst.Switches() {
		s := sw.Snapshot()
		if s.TrackedGrants != 1 || s.PendingAcquires != 1 {
			t.Fatalf("imported client tables: grants=%d pending=%d, want 1/1", s.TrackedGrants, s.PendingAcquires)
		}
	}
	// Unwind the cross-rack limbo before teardown: the clients still point
	// at the source, so their ops cannot complete — cancel the waiter and
	// leave the rest to Close.
	wcancel()
	_, _ = wa.Wait(wctx)
	src.Controller().SetShardFence(shard, false)
}
