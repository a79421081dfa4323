// Quickstart: acquire and release shared and exclusive locks against an
// embedded NetLock instance, and watch the memory-management loop move a
// hot lock into the switch data plane.
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
		Servers:      2,
		DefaultLease: 500 * time.Millisecond,
	})
	defer lm.Close()
	ctx := context.Background()

	// Exclusive lock: one holder at a time.
	g, err := lm.Acquire(ctx, 42, netlock.Exclusive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acquired lock %d (%s), lease expires at +%v\n", g.LockID(), g.Mode(), g.Expiry)
	g.Release()

	// Shared locks: many concurrent holders.
	var readers []*netlock.Grant
	for i := 0; i < 5; i++ {
		r, err := lm.Acquire(ctx, 42, netlock.Shared)
		if err != nil {
			log.Fatal(err)
		}
		readers = append(readers, r)
	}
	fmt.Printf("%d concurrent shared holders of lock 42\n", len(readers))

	// An exclusive request queues behind them (FCFS) and is granted when
	// the last reader releases.
	done := make(chan struct{})
	go func() {
		defer close(done)
		w, err := lm.Acquire(ctx, 42, netlock.Exclusive)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("writer granted after all readers released")
		w.Release()
	}()
	time.Sleep(50 * time.Millisecond)
	for _, r := range readers {
		r.Release()
	}
	<-done

	// New locks start at the lock servers (§4.3). Generate some traffic,
	// run a rebalance round, and the hot lock moves into the switch.
	for i := 0; i < 100; i++ {
		g, err := lm.Acquire(ctx, 7, netlock.Exclusive)
		if err != nil {
			log.Fatal(err)
		}
		g.Release()
	}
	moved := lm.RebalanceTick()
	st := lm.Stats()
	fmt.Printf("rebalancer moved %d locks into the switch (%d resident)\n",
		moved, st.SwitchResidentLocks)

	g2, err := lm.Acquire(ctx, 7, netlock.Exclusive)
	if err != nil {
		log.Fatal(err)
	}
	g2.Release()
	fmt.Printf("switch grants so far: %d (lock 7 is now switch-processed)\n",
		lm.Stats().Switch.GrantsImmediate)
}
