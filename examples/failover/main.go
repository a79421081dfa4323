// Failover: switch failure and reactivation with lease-based recovery
// (paper §4.5 and §6.5, Figure 15).
//
// A hot lock lives in the switch. A client "crashes" while holding it, the
// switch itself fails and restarts empty, and the system recovers: the
// control plane reinstalls the lock table, and the lease sweep reclaims the
// stale grant so new clients make progress.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"netlock"
)

func main() {
	lm := netlock.New(netlock.Config{
		Servers:       1,
		DefaultLease:  100 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	defer lm.Close()
	ctx := context.Background()

	// Make lock 1 hot and switch-resident.
	for i := 0; i < 50; i++ {
		g, err := lm.Acquire(ctx, 1, netlock.Exclusive)
		if err != nil {
			log.Fatal(err)
		}
		g.Release()
	}
	lm.RebalanceTick()
	fmt.Printf("lock 1 resident in switch: %d locks resident\n", lm.Stats().SwitchResidentLocks)

	// A client acquires... and crashes without releasing.
	if _, err := lm.Acquire(ctx, 1, netlock.Exclusive); err != nil {
		log.Fatal(err)
	}
	fmt.Println("holder crashed without releasing")

	// The lease sweep reclaims the lock for the next client.
	t0 := time.Now()
	cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	g, err := lm.Acquire(cctx, 1, netlock.Exclusive)
	if err != nil {
		log.Fatalf("lease recovery failed: %v", err)
	}
	fmt.Printf("lease expired; next client granted after %v\n", time.Since(t0).Round(time.Millisecond))
	g.Release()

	// Now the switch itself fails: all register state is lost.
	lm.FailSwitch()
	fmt.Printf("switch failed (failed=%v): data-plane state gone\n", lm.SwitchFailed())

	// Reactivate: the control plane reinstalls the lock table with empty
	// queues; clients simply retry their requests.
	lm.RestartSwitch()
	g2, err := lm.Acquire(ctx, 1, netlock.Exclusive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("switch reactivated; new acquisition granted against the rebuilt table")
	g2.Release()

	st := lm.Stats()
	fmt.Printf("expired releases swept: %d\n", st.Switch.ExpiredReleases)
}
