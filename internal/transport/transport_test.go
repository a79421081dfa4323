package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
)

// rack starts a switch and n lock servers on loopback and wires them up.
func rack(t *testing.T, n int, dp switchdp.Config) (*Switch, []*Server) {
	t.Helper()
	var servers []*Server
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := NewServer(ServerConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	sw, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", DataPlane: dp, Servers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	for _, srv := range servers {
		if err := srv.SetSwitchAddr(sw.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return sw, servers
}

// installLock performs the control-plane placement: install the lock in the
// switch AND transfer ownership away from its partition server, exactly the
// two-sided move core.Manager performs (§4.3).
func installLock(t *testing.T, sw *Switch, servers []*Server, lockID uint32, region switchdp.Region) {
	t.Helper()
	if err := installSwitchLock(sw, servers, lockID, []switchdp.Region{region}); err != nil {
		t.Fatal(err)
	}
}

// installSwitchLock makes lockID switch-resident on a single-switch rack
// wired by hand: the regions (one per priority bank) are installed in the
// switch data plane and the owning lock server (by RSS steering) releases
// ownership. It touches one switch only; replicated chains place locks
// through ctrlplane.Controller.InstallLock.
func installSwitchLock(sw *Switch, servers []*Server, lockID uint32, regions []switchdp.Region) error {
	var err error
	sw.WithDataPlane(func(dp *switchdp.Switch) {
		err = dp.CtrlInstallLock(lockID, regions)
	})
	if err != nil {
		return err
	}
	srv := servers[lockserver.RSSCore(lockID, len(servers))]
	srv.WithLockServer(func(ls *lockserver.Server) {
		err = ls.CtrlReleaseOwnership(lockID)
	})
	return err
}

func client(t *testing.T, sw *Switch) *Client {
	t.Helper()
	c, err := NewClient(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func dpConfig() switchdp.Config {
	return switchdp.Config{MaxLocks: 64, TotalSlots: 256, Priorities: 1}
}

const timeout = 5 * time.Second

// acquire is the test-side shorthand for a context-first acquire with a
// deadline.
func acquire(c *Client, lockID uint32, mode netlock.Mode, d time.Duration) (*Grant, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return c.Acquire(ctx, lockID, mode)
}

func TestServerPathAcquireRelease(t *testing.T) {
	sw, _ := rack(t, 2, dpConfig())
	c := client(t, sw)
	// No locks are switch-resident: the request flows
	// client -> switch -> server -> switch -> client.
	g, err := acquire(c, 1, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	g2, err := acquire(c, 1, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatalf("reacquire after release: %v", err)
	}
	g2.Release()
}

func TestSwitchPathAcquireRelease(t *testing.T) {
	sw, servers := rack(t, 1, dpConfig())
	installLock(t, sw, servers, 5, switchdp.Region{Left: 0, Right: 8})
	c := client(t, sw)
	g, err := acquire(c, 5, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	st := sw.Snapshot()
	if st.Stats.GrantsImmediate != 1 {
		t.Fatalf("switch should have granted: %+v", st.Stats)
	}
	if st.ResidentLocks != 1 {
		t.Fatalf("want 1 resident lock, got %d", st.ResidentLocks)
	}
}

func TestExclusiveContentionOverUDP(t *testing.T) {
	sw, servers := rack(t, 1, dpConfig())
	installLock(t, sw, servers, 9, switchdp.Region{Left: 0, Right: 64})
	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	inCrit := 0
	maxInCrit := 0
	for w := 0; w < workers; w++ {
		c := client(t, sw)
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g, err := acquire(c, 9, netlock.Exclusive, timeout)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				inCrit++
				if inCrit > maxInCrit {
					maxInCrit = inCrit
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inCrit--
				mu.Unlock()
				g.Release()
			}
		}(c)
	}
	wg.Wait()
	if maxInCrit != 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent holders", maxInCrit)
	}
}

func TestSharedConcurrencyOverUDP(t *testing.T) {
	sw, servers := rack(t, 1, dpConfig())
	installLock(t, sw, servers, 3, switchdp.Region{Left: 64, Right: 128})
	c := client(t, sw)
	var grants []*Grant
	for i := 0; i < 10; i++ {
		g, err := acquire(c, 3, netlock.Shared, timeout)
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	for _, g := range grants {
		g.Release()
	}
}

func TestOverflowOverUDP(t *testing.T) {
	// Leases clean up ghost holders left by client retransmissions; the
	// control sweep re-arms stranded overflow queues.
	dp := dpConfig()
	dp.DefaultLeaseNs = int64(200 * time.Millisecond)
	sw, servers := rack(t, 1, dp)
	// Tiny region: contention overflows to the server and must still
	// drain correctly through the push protocol.
	installLock(t, sw, servers, 7, switchdp.Region{Left: 0, Right: 2})
	// Force the overflow: one client holds the lock while four more queue
	// behind it. The 2-slot region takes the holder and one waiter; the
	// rest overflow to the server. The holder keeps the lock until the
	// switch has counted an overflow, so no scheduling can serialize the
	// waiters past it.
	holder, err := acquire(client(t, sw), 7, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var queued []*AsyncAcquire
	for w := 0; w < 4; w++ {
		a, err := client(t, sw).AcquireAsync(ctx, 7, netlock.Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, a)
	}
	for sw.Snapshot().Stats.Overflows == 0 {
		if ctx.Err() != nil {
			t.Fatalf("overflow path not exercised: %+v", sw.Snapshot().Stats)
		}
		time.Sleep(time.Millisecond)
	}
	holder.Release()
	for _, a := range queued {
		g, err := a.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	// Then contended churn through the same region.
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := client(t, sw)
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				g, err := acquire(c, 7, netlock.Exclusive, timeout)
				if err != nil {
					t.Error(err)
					return
				}
				g.Release()
			}
		}(c)
	}
	wg.Wait()
	st := sw.Snapshot()
	if st.Stats.Overflows == 0 {
		t.Fatalf("overflow path not exercised: %+v", st.Stats)
	}
}

func TestAcquireTimeout(t *testing.T) {
	sw, _ := rack(t, 1, dpConfig())
	c1 := client(t, sw)
	c2 := client(t, sw)
	g, err := acquire(c1, 11, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}
	_, err = acquire(c2, 11, netlock.Exclusive, 100*time.Millisecond)
	if err == nil {
		t.Fatalf("blocked acquire should time out")
	}
	if !errors.Is(err, netlock.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded in chain, got %v", err)
	}
	g.Release()
}

// TestAcquireCancel covers explicit context cancellation mid-acquire: the
// call must return promptly with a ctx error, not wait for a timeout.
func TestAcquireCancel(t *testing.T) {
	sw, _ := rack(t, 1, dpConfig())
	c1 := client(t, sw)
	c2 := client(t, sw)
	g, err := acquire(c1, 13, netlock.Exclusive, timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c2.Acquire(ctx, 13, netlock.Exclusive)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled acquire did not return")
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := NewSwitch(SwitchConfig{Listen: "127.0.0.1:0", DataPlane: dpConfig()}); err == nil {
		t.Fatalf("switch with no servers should fail")
	}
	if _, err := NewSwitch(SwitchConfig{Listen: "bogus::addr::", DataPlane: dpConfig(), Servers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatalf("bad listen addr should fail")
	}
	if _, err := NewClient("bogus::addr::"); err == nil {
		t.Fatalf("bad switch addr should fail")
	}
	if _, err := NewServer(ServerConfig{Listen: "bogus::addr::"}); err == nil {
		t.Fatalf("bad server listen should fail")
	}
	srv, err := NewServer(ServerConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetSwitchAddr("bogus::addr::"); err == nil {
		t.Fatalf("bad switch addr should fail")
	}
}

func TestCloseIdempotent(t *testing.T) {
	sw, servers := rack(t, 1, dpConfig())
	c := client(t, sw)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	sw.Close()
	sw.Close()
	servers[0].Close()
	servers[0].Close()
}

// TestClosedClientSentinel: acquiring on a closed client returns ErrClosed.
func TestClosedClientSentinel(t *testing.T) {
	sw, _ := rack(t, 1, dpConfig())
	c, err := NewClient(sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	_, err = acquire(c, 1, netlock.Exclusive, time.Second)
	if !errors.Is(err, netlock.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
