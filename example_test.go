package netlock_test

import (
	"context"
	"fmt"

	"netlock"
)

// ExampleManager shows the embedded API's basic lifecycle: exclusive and
// shared acquisition, FCFS blocking, and release.
func ExampleManager() {
	lm := netlock.New(netlock.Config{Servers: 1})
	defer lm.Close()
	ctx := context.Background()

	g, _ := lm.Acquire(ctx, 42, netlock.Exclusive)
	fmt.Println("holding lock", g.LockID(), "as", g.Mode())
	g.Release()

	r1, _ := lm.Acquire(ctx, 42, netlock.Shared)
	r2, _ := lm.Acquire(ctx, 42, netlock.Shared)
	fmt.Println("two concurrent shared holders")
	r1.Release()
	r2.Release()
	// Output:
	// holding lock 42 as exclusive
	// two concurrent shared holders
}

// ExampleManager_RebalanceTick shows the memory-management loop moving a
// hot lock into the switch data plane, live.
func ExampleManager_RebalanceTick() {
	lm := netlock.New(netlock.Config{Servers: 1})
	defer lm.Close()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		g, _ := lm.Acquire(ctx, 7, netlock.Exclusive)
		g.Release()
	}
	fmt.Println("locks moved into the switch:", lm.RebalanceTick())
	fmt.Println("locks resident:", lm.Stats().SwitchResidentLocks)
	// Output:
	// locks moved into the switch: 1
	// locks resident: 1
}

// ExampleWithTenant shows per-tenant quota enforcement (performance
// isolation, §4.4 of the paper).
func ExampleWithTenant() {
	lm := netlock.New(netlock.Config{Servers: 1, Isolation: true})
	defer lm.Close()
	lm.SetTenantQuota(3, 100, 1) // 100 req/s, burst 1
	ctx := context.Background()

	g, err := lm.Acquire(ctx, 1, netlock.Shared, netlock.WithTenant(3))
	fmt.Println("first:", err)
	_, err = lm.Acquire(ctx, 2, netlock.Shared, netlock.WithTenant(3))
	fmt.Println("second:", err)
	g.Release()
	// Output:
	// first: <nil>
	// second: netlock: tenant quota exceeded
}
