package netlock

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAcquireReleaseExclusive(t *testing.T) {
	m := New(Config{Servers: 1})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 1, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	if g.LockID() != 1 || g.Mode() != Exclusive {
		t.Fatalf("grant fields wrong: %+v", g)
	}
	g.Release()
	g.Release() // idempotent
	// Lock is free again.
	g2, err := m.Acquire(ctx, 1, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m := New(Config{Servers: 1})
	defer m.Close()
	ctx := context.Background()
	g1, err := m.Acquire(ctx, 7, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	var granted atomic.Bool
	done := make(chan struct{})
	go func() {
		g2, err := m.Acquire(ctx, 7, Exclusive)
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		granted.Store(true)
		g2.Release()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if granted.Load() {
		t.Fatalf("second exclusive granted while first held")
	}
	g1.Release()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("waiter not granted after release")
	}
}

func TestSharedConcurrentHolders(t *testing.T) {
	m := New(Config{Servers: 1})
	defer m.Close()
	ctx := context.Background()
	var grants []*Grant
	for i := 0; i < 10; i++ {
		g, err := m.Acquire(ctx, 3, Shared)
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	for _, g := range grants {
		g.Release()
	}
}

func TestFIFOOrderUnderContention(t *testing.T) {
	m := New(Config{Servers: 1})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 5, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			gi, err := m.Acquire(ctx, 5, Exclusive)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			gi.Release()
		}()
		// Serialize submission so FIFO order is well-defined.
		time.Sleep(10 * time.Millisecond)
	}
	g.Release()
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FCFS violated: %v", order)
		}
	}
}

func TestManyLocksConcurrently(t *testing.T) {
	m := New(Config{Servers: 2})
	defer m.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	var completed atomic.Int64
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint32(w*31+i) % 97
				g, err := m.Acquire(ctx, id, Exclusive)
				if err != nil {
					t.Error(err)
					return
				}
				g.Release()
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if completed.Load() != 16*200 {
		t.Fatalf("completed = %d", completed.Load())
	}
}

func TestTenantQuota(t *testing.T) {
	m := New(Config{Servers: 1, Isolation: true})
	defer m.Close()
	m.SetTenantQuota(1, 10, 2)
	ctx := context.Background()
	// Burst of 2 succeeds; the third is rejected.
	g1, err := m.Acquire(ctx, 1, Shared, WithTenant(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.Acquire(ctx, 2, Shared, WithTenant(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Acquire(ctx, 3, Shared, WithTenant(1))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	g1.Release()
	g2.Release()
	// Unconfigured tenants are rejected outright under isolation.
	if _, err := m.Acquire(ctx, 4, Shared, WithTenant(9)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("unconfigured tenant should be rejected, got %v", err)
	}
}

func TestPriorityGrant(t *testing.T) {
	m := New(Config{Servers: 1, Priorities: 2})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 9, Exclusive, WithPriority(1))
	if err != nil {
		t.Fatal(err)
	}
	var firstGranted atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gl, err := m.Acquire(ctx, 9, Exclusive, WithPriority(1))
		if err != nil {
			t.Error(err)
			return
		}
		firstGranted.CompareAndSwap(0, 1)
		gl.Release()
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer wg.Done()
		gh, err := m.Acquire(ctx, 9, Exclusive, WithPriority(0))
		if err != nil {
			t.Error(err)
			return
		}
		firstGranted.CompareAndSwap(0, 2)
		gh.Release()
	}()
	time.Sleep(20 * time.Millisecond)
	g.Release()
	wg.Wait()
	if firstGranted.Load() != 2 {
		t.Fatalf("high-priority waiter should be granted first")
	}
}

func TestLeaseExpiryReclaimsLock(t *testing.T) {
	m := New(Config{
		Servers:       1,
		DefaultLease:  30 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 11, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	_ = g // holder "crashes": never releases
	// A second acquire succeeds once the lease expires.
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	g2, err := m.Acquire(ctx2, 11, Exclusive)
	if err != nil {
		t.Fatalf("lease did not reclaim the lock: %v", err)
	}
	g2.Release()
}

func TestContextCancellation(t *testing.T) {
	// The lease is long so the cancellation fires first.
	m := New(Config{Servers: 1, DefaultLease: time.Second, SweepInterval: 5 * time.Millisecond})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 13, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	_, err = m.Acquire(cctx, 13, Exclusive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	g.Release()
}

func TestFailoverWithLeases(t *testing.T) {
	m := New(Config{
		Servers:       1,
		DefaultLease:  30 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	defer m.Close()
	ctx := context.Background()
	// Put a hot lock in the switch.
	for i := 0; i < 10; i++ {
		g, _ := m.Acquire(ctx, 1, Exclusive)
		g.Release()
	}
	m.RebalanceTick()
	g, err := m.Acquire(ctx, 1, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	// Switch fails and restarts: state is gone, the held grant is stale.
	m.FailSwitch()
	if !m.SwitchFailed() {
		t.Fatalf("switch should be failed")
	}
	m.RestartSwitch()
	// A new acquire succeeds against the reinstalled (empty) lock table.
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	g2, err := m.Acquire(ctx2, 1, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	g2.Release()
	_ = g // stale grant; its release is a harmless no-op on the new state
	g.Release()
}

// TestFailServerRejectsBadInput: a failover the directory refuses returns
// an error and changes nothing — every shard mutex is released, no lock is
// rerouted, and Acquire keeps working on both shards and both servers.
func TestFailServerRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		name                string
		prior               [][2]int // failovers applied first
		failed, replacement int
	}{
		{"self", nil, 1, 1},
		{"failed out of range", nil, 2, 0},
		{"replacement out of range", nil, 0, 2},
		{"negative index", nil, -1, 0},
		{"cycle", [][2]int{{0, 1}}, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := New(Config{Servers: 2, Shards: 2})
			defer m.Close()
			for _, p := range c.prior {
				if err := m.FailServer(p[0], p[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.FailServer(c.failed, c.replacement); err == nil {
				t.Fatalf("FailServer(%d, %d) accepted", c.failed, c.replacement)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for id := uint32(1); id <= 8; id++ {
				g, err := m.Acquire(ctx, id, Exclusive)
				if err != nil {
					t.Fatalf("acquire %d after refused failover: %v", id, err)
				}
				g.Release()
			}
		})
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	m := New(Config{Servers: 1})
	ctx := context.Background()
	g, err := m.Acquire(ctx, 21, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	errCh := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx, 21, Exclusive)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("close did not unblock waiter")
	}
	if _, err := m.Acquire(ctx, 1, Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v", err)
	}
	m.Close() // idempotent
}

func TestStatsSnapshot(t *testing.T) {
	m := New(Config{Servers: 3})
	defer m.Close()
	g, _ := m.Acquire(context.Background(), 1, Shared)
	g.Release()
	st := m.Stats()
	if len(st.Servers) != 3 {
		t.Fatalf("server stats = %d, want 3", len(st.Servers))
	}
	if st.SwitchFreeSlots == 0 {
		t.Fatalf("free slots should be positive")
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Fatalf("mode strings wrong")
	}
}

func TestWithLeaseExpiry(t *testing.T) {
	m := New(Config{Servers: 1, DefaultLease: time.Hour, SweepInterval: 5 * time.Millisecond})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 31, Exclusive, WithLease(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if g.Expiry <= 0 || g.Expiry > time.Minute {
		t.Fatalf("expiry = %v, want ~50ms from start", g.Expiry)
	}
	// The per-acquire lease (50ms), not the default (1h), governs: a
	// second acquire succeeds well within the hour.
	ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	g2, err := m.Acquire(ctx2, 31, Exclusive)
	if err != nil {
		t.Fatalf("short lease not honored: %v", err)
	}
	g2.Release()
}

func TestPriorityOnServerOwnedLock(t *testing.T) {
	// Priorities apply on the server path too (lock never placed in the
	// switch here).
	m := New(Config{Servers: 1, Priorities: 2})
	defer m.Close()
	ctx := context.Background()
	g, err := m.Acquire(ctx, 77, Exclusive, WithPriority(1))
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		gl, _ := m.Acquire(ctx, 77, Exclusive, WithPriority(1))
		order <- 1
		gl.Release()
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer wg.Done()
		gh, _ := m.Acquire(ctx, 77, Exclusive, WithPriority(0))
		order <- 0
		gh.Release()
	}()
	time.Sleep(20 * time.Millisecond)
	g.Release()
	wg.Wait()
	if first := <-order; first != 0 {
		t.Fatalf("high priority should be served first on the server path")
	}
}
