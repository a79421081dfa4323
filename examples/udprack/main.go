// UDP rack: a NetLock switch chain and two lock servers on loopback
// sockets, driven by concurrent clients — the deployment shape of the
// paper's prototype (§5), in miniature, built through the ctrlplane
// Topology API.
//
// The control plane (ctrlplane.New) installs a hot lock in the switch and
// leaves the rest to the servers; clients observe identical semantics on
// both paths.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

func main() {
	// Two lock servers behind one ToR lock switch, with leases for crash
	// recovery (the servers take the switch's banks and lease); lock 1 is
	// hot — SwitchLocks installs it in the data plane (and releases
	// ownership at its partition server, the §4.3 move).
	tp, err := ctrlplane.New(ctrlplane.Config{
		Switches: 1,
		Servers:  2,
		DataPlane: switchdp.Config{
			MaxLocks:       1024,
			TotalSlots:     10_000,
			Priorities:     1,
			DefaultLeaseNs: int64(500 * time.Millisecond),
		},
		SwitchLocks: []ctrlplane.SwitchLock{{ID: 1, Slots: 64}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tp.Close()
	var srvAddrs []string
	for _, srv := range tp.Servers() {
		srvAddrs = append(srvAddrs, srv.Addr())
	}
	lease := time.Duration(tp.Servers()[0].LockServer().Config().DefaultLeaseNs)
	fmt.Printf("switch on %s, lock servers on %v, lease %v\n", tp.Head().Addr(), srvAddrs, lease)

	// Clients hammer the hot lock (switch path) and a cold lock (server
	// path) concurrently. Each acquire carries a per-call deadline through
	// its context.
	var wg sync.WaitGroup
	var hot, cold atomic.Int64
	deadline := time.Now().Add(time.Second)
	for w := 0; w < 4; w++ {
		c, err := tp.NewClient(transport.ClientConfig{})
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(c *transport.Client, w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				g, err := c.Acquire(ctx, 1, netlock.Exclusive)
				cancel()
				if err != nil {
					log.Fatal(err)
				}
				hot.Add(1)
				g.Release()
				ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
				g2, err := c.Acquire(ctx, uint32(100+w), netlock.Shared)
				cancel()
				if err != nil {
					log.Fatal(err)
				}
				cold.Add(1)
				g2.Release()
			}
		}(c, w)
	}
	wg.Wait()

	snap := tp.Head().Snapshot()
	st := snap.Stats
	fmt.Printf("hot lock (switch path): %d acquisitions, %d switch grants\n",
		hot.Load(), st.GrantsImmediate+st.GrantsQueued)
	fmt.Printf("cold locks (server path): %d acquisitions, %d forwards\n",
		cold.Load(), st.Forwards)
	if st.GrantsImmediate+st.GrantsQueued == 0 || st.Forwards == 0 {
		log.Fatal("expected both switch-path and server-path traffic")
	}
}
