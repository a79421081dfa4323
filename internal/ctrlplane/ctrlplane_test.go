package ctrlplane

import (
	"context"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
	"netlock/internal/wire"
)

const timeout = 10 * time.Second

func dpConfig() switchdp.Config {
	return switchdp.Config{MaxLocks: 64, TotalSlots: 256, Priorities: 1}
}

func topo(t *testing.T, cfg Config) *Topology {
	t.Helper()
	if cfg.DataPlane.MaxLocks == 0 {
		cfg.DataPlane = dpConfig()
	}
	tp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tp.Close)
	return tp
}

func fastClient(t *testing.T, tp *Topology) *transport.Client {
	t.Helper()
	c, err := tp.NewClient(transport.ClientConfig{RetryInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
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

// TestTwoBankPreinstallUsesWholeBanks: SwitchLock.Slots is a lock's total
// slots, split across the priority banks, so two 16-slot locks on a 2-bank
// 64-slot switch take 8 slots of each 32-slot bank and leave half of every
// bank free — the same geometry the embedded Manager's Preinstall leaves.
func TestTwoBankPreinstallUsesWholeBanks(t *testing.T) {
	tp := topo(t, Config{
		DataPlane:   switchdp.Config{MaxLocks: 8, TotalSlots: 64, Priorities: 2},
		Server:      lockserver.Config{Priorities: 2},
		SwitchLocks: []SwitchLock{{ID: 1, Slots: 16}, {ID: 2, Slots: 16}},
	})
	ctrl := tp.Controller()
	if got, want := ctrl.Placement(), map[uint32]uint64{1: 16, 2: 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("placement %v, want %v", got, want)
	}
	if err := ctrl.InstallLock(3, 32); err != nil {
		t.Fatalf("the free half of both banks is unusable: %v", err)
	}
	if err := ctrl.InstallLock(4, 2); err == nil {
		t.Fatal("install into full banks accepted")
	}
	acquire(t, fastClient(t, tp), 3).Release()
}

// TestServersInheritBanksAndLease: a rack configured only through its data
// plane runs every lock server, the ones New starts and one AddServer adds,
// with the switch's priority banks and default lease. A resident lock with
// a holder demotes into a server, and the server stamps its own grants
// with the same lease.
func TestServersInheritBanksAndLease(t *testing.T) {
	const lease = int64(time.Minute)
	tp := topo(t, Config{
		DataPlane:   switchdp.Config{MaxLocks: 16, TotalSlots: 64, Priorities: 2, DefaultLeaseNs: lease},
		SwitchLocks: []SwitchLock{{ID: 5, Slots: 8}},
	})
	c := fastClient(t, tp)
	acquire(t, c, 5)
	if _, err := tp.Controller().MoveToServer(5); err != nil {
		t.Fatalf("demote lock 5: %v", err)
	}
	if _, err := tp.AddServer(); err != nil {
		t.Fatalf("add server: %v", err)
	}
	acquire(t, c, 9) // server-owned from the start

	expired := map[uint32]int{}
	for i, srv := range tp.Servers() {
		srv.WithLockServer(func(ls *lockserver.Server) {
			if cfg := ls.Config(); cfg.Priorities != 2 || cfg.DefaultLeaseNs != lease {
				t.Errorf("server %d: %d priorities, lease %v; want 2 and %v",
					i, cfg.Priorities, time.Duration(cfg.DefaultLeaseNs), time.Duration(lease))
			}
			if es := ls.CtrlScanExpired(ls.CtrlNow() + lease/2); len(es) != 0 {
				t.Errorf("server %d: lease shorter than %v: %+v", i, time.Duration(lease/2), es)
			}
			for _, e := range ls.CtrlScanExpired(ls.CtrlNow() + lease + 1) {
				expired[e.Hdr.LockID]++
			}
		})
	}
	if want := map[uint32]int{5: 1, 9: 1}; !reflect.DeepEqual(expired, want) {
		t.Fatalf("holders past the lease, by lock: %v, want %v", expired, want)
	}
}

// TestTopologySingleSwitch: the degenerate chain behaves like the old
// ad-hoc rack bringup — server path and switch path both work.
func TestTopologySingleSwitch(t *testing.T) {
	tp := topo(t, Config{SwitchLocks: []SwitchLock{{ID: 5, Slots: 8}}})
	c := fastClient(t, tp)
	acquire(t, c, 1).Release() // server path
	acquire(t, c, 5).Release() // switch path
	st := tp.Head().Snapshot()
	if st.ResidentLocks != 1 {
		t.Fatalf("want 1 resident lock, got %d", st.ResidentLocks)
	}
}

// TestHeadFailureInflightAcquires: the head dies while a batch of
// contended acquires is in flight; every acquire must still complete
// exactly once through the reconfigured chain.
func TestHeadFailureInflightAcquires(t *testing.T) {
	tp := topo(t, Config{Switches: 3, SwitchLocks: []SwitchLock{{ID: 9, Slots: 16}}})
	c := fastClient(t, tp)

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	var mu sync.Mutex
	order := []int{}
	for i := 0; i < n; i++ {
		i := i
		lock := uint32(9)
		if i%2 == 1 {
			lock = 2 // server path interleaved with switch path
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			g, err := c.Acquire(ctx, lock, netlock.Exclusive)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Release()
		}()
	}
	time.Sleep(5 * time.Millisecond) // let some acquires enter the chain
	if err := tp.Controller().FailHead(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquire %d across head failure: %v", i, err)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d acquires granted", len(order), n)
	}
	if got := tp.Controller().Epoch(); got != 2 {
		t.Fatalf("epoch after one failure = %d, want 2", got)
	}
}

// TestMidFailureUnderTraffic: a middle chain member dies; replication
// re-stitches around it without client-visible effect.
func TestMidFailureUnderTraffic(t *testing.T) {
	tp := topo(t, Config{Switches: 3})
	c := fastClient(t, tp)

	g := acquire(t, c, 3)
	if err := tp.Controller().Fail(1); err != nil {
		t.Fatal(err)
	}
	// The survivors must agree on the applied prefix after healing.
	g.Release()
	acquire(t, c, 3).Release()
	mems := tp.Switches()
	if len(mems) != 2 {
		t.Fatalf("want 2 survivors, got %d", len(mems))
	}
	deadline := time.Now().Add(timeout)
	for {
		a, b := mems[0].ChainStatus(), mems[1].ChainStatus()
		if a.Applied == b.Applied && a.LogLen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors diverged: head %+v tail %+v", a, b)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTailFailureGrantCache: the tail dies while a grant is outstanding;
// the surviving members' replicated grant cache must answer the release
// (and a retransmitted acquire) under the new epoch.
func TestTailFailureGrantCache(t *testing.T) {
	tp := topo(t, Config{Switches: 3, SwitchLocks: []SwitchLock{{ID: 7, Slots: 8}}})
	c := fastClient(t, tp)

	g := acquire(t, c, 7)
	if err := tp.Controller().Fail(2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := g.ReleaseWait(ctx); err != nil {
		t.Fatalf("release after tail failure: %v", err)
	}
	// The lock must be free again on the survivors.
	acquire(t, c, 7).Release()
}

// TestNoDuplicateGrantAcrossEpoch: client A's grant datagrams are
// suppressed so A is still retransmitting its acquire when the head
// dies. After promotion A's retransmit must be answered from the
// replicated grant cache — NOT re-granted through the data plane — so
// contender B stays queued until A releases.
func TestNoDuplicateGrantAcrossEpoch(t *testing.T) {
	chaos := &transport.ChaosConfig{Seed: 42}
	tp := topo(t, Config{Switches: 2, Chaos: chaos, SwitchLocks: []SwitchLock{{ID: 11, Slots: 8}}})
	a := fastClient(t, tp)
	b := fastClient(t, tp)

	// Drop every grant for lock 11 until the epoch changes.
	var dropped sync.Map
	tp.Chaos().SetFilter(func(data []byte, from, to netip.AddrPort) bool {
		for _, h := range decodeOps(data) {
			if h.Op == wire.OpGrant && h.LockID == 11 {
				dropped.Store(to, true)
				return true
			}
		}
		return false
	})

	actx, acancel := context.WithTimeout(context.Background(), timeout)
	defer acancel()
	aAcq, err := a.AcquireAsync(actx, 11, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until at least one grant was produced and suppressed: the data
	// plane has committed the grant to A even though A never saw it.
	deadline := time.Now().Add(timeout)
	for {
		n := 0
		dropped.Range(func(any, any) bool { n++; return true })
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("grant was never produced")
		}
		time.Sleep(time.Millisecond)
	}

	// B contends for the same lock; it must queue behind A.
	bctx, bcancel := context.WithTimeout(context.Background(), timeout)
	defer bcancel()
	bAcq, err := b.AcquireAsync(bctx, 11, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}

	tp.Chaos().SetFilter(nil)
	if err := tp.Controller().FailHead(); err != nil {
		t.Fatal(err)
	}

	ga, err := aAcq.Wait(actx)
	if err != nil {
		t.Fatalf("A's suppressed grant not recovered after failover: %v", err)
	}
	// B must NOT hold the lock while A does: its acquire is still pending.
	select {
	case <-time.After(50 * time.Millisecond):
	}
	relCtx, relCancel := context.WithTimeout(context.Background(), timeout)
	defer relCancel()
	if err := ga.ReleaseWait(relCtx); err != nil {
		t.Fatal(err)
	}
	gb, err := bAcq.Wait(bctx)
	if err != nil {
		t.Fatalf("B starved after failover: %v", err)
	}
	gb.Release()
	// Exactly one data-plane grant per txn: A's retransmit after the epoch
	// change must have been served from the replicated cache, so the
	// surviving switch granted exactly twice (A once, B once).
	grants := uint64(0)
	for _, sw := range tp.Switches() {
		st := sw.Snapshot()
		grants += st.Stats.GrantsImmediate + st.Stats.GrantsQueued
	}
	if grants != 2 {
		t.Fatalf("surviving data plane granted %d times, want 2 (one per txn)", grants)
	}
}

// decodeOps splits a datagram into wire headers, unwrapping batch frames;
// non-op frames (chain envelopes) decode to nothing.
func decodeOps(data []byte) []wire.Header {
	var out []wire.Header
	if wire.IsChain(data) {
		return out
	}
	if wire.IsBatch(data) {
		var r wire.BatchReader
		if r.Reset(data) != nil {
			return out
		}
		var h wire.Header
		for {
			ok, err := r.Next(&h)
			if err != nil || !ok {
				return out
			}
			out = append(out, h)
		}
	}
	var h wire.Header
	if h.DecodeFromBytes(data) == nil {
		out = append(out, h)
	}
	return out
}

// TestFailLastMemberRefused: the chain cannot shrink to nothing.
func TestFailLastMemberRefused(t *testing.T) {
	tp := topo(t, Config{Switches: 2})
	if err := tp.Controller().FailHead(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Controller().FailHead(); err == nil {
		t.Fatal("failing the last member should be refused")
	}
}
