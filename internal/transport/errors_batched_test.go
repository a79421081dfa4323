package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
)

// These tests pin the sentinel-error contract over the *batched*
// multiplexed client (default MaxBatch, so ops coalesce into batch
// frames): every terminal failure must match its netlock sentinel via
// errors.Is even after crossing the wire as an OpReject or expiring in
// the client's retry loop.

func markReliable(t *testing.T, cn *ChaosNet, addr string) {
	t.Helper()
	if err := cn.MarkReliable(addr); err != nil {
		t.Fatalf("MarkReliable(%q): %v", addr, err)
	}
}

// errorRack builds a one-server rack over a quiet chaos network with a
// caller-controlled server and data-plane config.
func errorRack(t *testing.T, srvCfg lockserver.Config, dp switchdp.Config) (*ChaosNet, *Switch, []*Server) {
	t.Helper()
	cn := NewChaosNet(ChaosConfig{Seed: 1})
	srv, err := NewServer(ServerConfig{Listen: "10.99.0.1:0", Config: srvCfg, Net: cn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	markReliable(t, cn, srv.Addr())
	sw, err := NewSwitch(SwitchConfig{Listen: "10.99.0.1:0", DataPlane: dp, Servers: []string{srv.Addr()}, Net: cn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	markReliable(t, cn, sw.Addr())
	if err := srv.SetSwitchAddr(sw.Addr()); err != nil {
		t.Fatal(err)
	}
	return cn, sw, []*Server{srv}
}

func batchedClient(t *testing.T, cn *ChaosNet, sw *Switch) *Client {
	t.Helper()
	c, err := NewClientConfig(ClientConfig{
		Switch:        sw.Addr(),
		Net:           cn,
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBatchedErrQueueOverflow fills a server-owned lock's bounded buffer
// (MaxBuffer 1: the holder occupies the only slot) and requires the
// bounced request to surface as ErrQueueOverflow.
func TestBatchedErrQueueOverflow(t *testing.T) {
	cn, sw, _ := errorRack(t,
		lockserver.Config{MaxBuffer: 1},
		switchdp.Config{MaxLocks: 4, TotalSlots: 16, Priorities: 1})
	c := batchedClient(t, cn, sw)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := c.Acquire(ctx, 7, netlock.Exclusive)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	defer g.Release()

	_, err = c.Acquire(ctx, 7, netlock.Exclusive)
	if !errors.Is(err, netlock.ErrQueueOverflow) {
		t.Fatalf("overflowed acquire: %v, want errors.Is ErrQueueOverflow", err)
	}
	// The sentinel must not alias the other reject class.
	if errors.Is(err, netlock.ErrQuotaExceeded) {
		t.Fatalf("overflow error also matches ErrQuotaExceeded: %v", err)
	}
}

// TestBatchedErrQuotaExceeded meters a tenant down to a single-token
// burst and requires the switch's ingress reject to surface as
// ErrQuotaExceeded.
func TestBatchedErrQuotaExceeded(t *testing.T) {
	cn, sw, servers := errorRack(t,
		lockserver.Config{},
		switchdp.Config{MaxLocks: 4, TotalSlots: 16, Priorities: 1, Isolation: true})
	if err := installSwitchLock(sw, servers, 3, []switchdp.Region{{Left: 0, Right: 8}}); err != nil {
		t.Fatal(err)
	}
	sw.WithDataPlane(func(dp *switchdp.Switch) {
		dp.CtrlSetTenantQuota(5, 0.001, 1)
	})
	c := batchedClient(t, cn, sw)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := c.Acquire(ctx, 3, netlock.Shared, netlock.WithTenant(5))
	if err != nil {
		t.Fatalf("burst acquire: %v", err)
	}
	g.Release()

	_, err = c.Acquire(ctx, 3, netlock.Shared, netlock.WithTenant(5))
	if !errors.Is(err, netlock.ErrQuotaExceeded) {
		t.Fatalf("metered acquire: %v, want errors.Is ErrQuotaExceeded", err)
	}
	if errors.Is(err, netlock.ErrQueueOverflow) {
		t.Fatalf("quota error also matches ErrQueueOverflow: %v", err)
	}
}

// TestBatchedErrTimeout expires a queued acquire's context while another
// holder pins the lock; the client must wrap the deadline expiry so both
// errors.Is(err, ErrTimeout) and errors.Is(err, context.DeadlineExceeded)
// hold.
func TestBatchedErrTimeout(t *testing.T) {
	cn, sw, servers := errorRack(t,
		lockserver.Config{},
		switchdp.Config{MaxLocks: 4, TotalSlots: 16, Priorities: 1})
	if err := installSwitchLock(sw, servers, 9, []switchdp.Region{{Left: 0, Right: 8}}); err != nil {
		t.Fatal(err)
	}
	c := batchedClient(t, cn, sw)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g, err := c.Acquire(ctx, 9, netlock.Exclusive)
	if err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	defer g.Release()

	short, scancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer scancel()
	_, err = c.Acquire(short, 9, netlock.Exclusive)
	if !errors.Is(err, netlock.ErrTimeout) {
		t.Fatalf("queued acquire: %v, want errors.Is ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire: %v, want errors.Is context.DeadlineExceeded", err)
	}
}
