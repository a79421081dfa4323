// TPC-C-style transaction locking over the NetLock public API: workers run
// the standard transaction mix (New-Order, Payment, ...), each acquiring
// its lock set in the global order, while the rebalancer migrates hot
// warehouse and district locks into the switch.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
)

const (
	warehouses = 4
	districts  = 10
)

// spin busy-waits, modeling in-memory transaction execution without the
// millisecond-scale granularity of time.Sleep.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// lockID encodes (table, key) like internal/tpcc.
func lockID(table, key uint32) uint32 { return table<<28 | key }

type lockReq struct {
	id   uint32
	mode netlock.Mode
}

// paymentTxn locks warehouse (X), district (X), customer (X).
func paymentTxn(rng *rand.Rand) []lockReq {
	w := uint32(rng.Intn(warehouses))
	d := w*districts + uint32(rng.Intn(districts))
	c := d*3000 + uint32(rng.Intn(3000))
	return []lockReq{
		{lockID(3, c), netlock.Exclusive},
		{lockID(2, d), netlock.Exclusive},
		{lockID(1, w), netlock.Exclusive},
	}
}

// newOrderTxn locks warehouse (S), district (X), and a few stock pages (X).
func newOrderTxn(rng *rand.Rand) []lockReq {
	w := uint32(rng.Intn(warehouses))
	d := w*districts + uint32(rng.Intn(districts))
	reqs := []lockReq{
		{lockID(2, d), netlock.Exclusive},
		{lockID(1, w), netlock.Shared},
	}
	// Deduplicate the page set: acquiring the same exclusive lock twice in
	// one transaction would self-deadlock.
	pages := map[uint32]bool{}
	for len(pages) < 5 {
		pages[lockID(5, w*100+uint32(rng.Intn(100)))] = true
	}
	for id := range pages {
		reqs = append(reqs, lockReq{id, netlock.Exclusive})
	}
	// Hot-last global order: acquire cold tables first (higher table IDs),
	// the contended warehouse last.
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].id > reqs[j].id })
	return reqs
}

func main() {
	lm := netlock.New(netlock.Config{
		Servers:           2,
		DefaultLease:      time.Second,
		RebalanceInterval: 100 * time.Millisecond,
	})
	defer lm.Close()

	const workers = 8
	const runFor = 2 * time.Second
	var committed atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(runFor)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for time.Now().Before(stop) {
				var reqs []lockReq
				if rng.Intn(100) < 49 {
					reqs = newOrderTxn(rng)
				} else {
					reqs = paymentTxn(rng)
				}
				var grants []*netlock.Grant
				ok := true
				for _, r := range reqs {
					g, err := lm.Acquire(ctx, r.id, r.mode)
					if err != nil {
						ok = false
						break
					}
					grants = append(grants, g)
				}
				// "Execute" the transaction (in-memory work; an OS sleep would
				// inflate hold times by the timer granularity), then release
				// in reverse order.
				if ok {
					spin(2 * time.Microsecond)
					committed.Add(1)
				}
				for i := len(grants) - 1; i >= 0; i-- {
					grants[i].Release()
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	st := lm.Stats()
	fmt.Printf("committed %d transactions in %v (%.0f TPS)\n",
		committed.Load(), runFor, float64(committed.Load())/runFor.Seconds())
	switchGrants := st.Switch.GrantsImmediate + st.Switch.GrantsQueued
	var serverGrants uint64
	for _, s := range st.Servers {
		serverGrants += s.GrantsImmediate + s.GrantsQueued
	}
	fmt.Printf("lock grants: %d by the switch, %d by lock servers (%d locks resident)\n",
		switchGrants, serverGrants, st.SwitchResidentLocks)
	if switchGrants == 0 {
		log.Fatal("expected the rebalancer to move hot locks into the switch")
	}
}
