// Command lockclient drives load against a NetLock switch over UDP and
// reports throughput and latency, mirroring the paper's DPDK client (§5).
//
//	lockclient -switch 127.0.0.1:9000 -locks 1024 -mode exclusive \
//	           -concurrency 32 -duration 5s
//
// Against a replicated rack, list every chain member head first and the
// client re-targets on epoch announcements when the head fails:
//
//	lockclient -switch 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/stats"
	"netlock/internal/transport"
)

func main() {
	swAddr := flag.String("switch", "127.0.0.1:9000", "switch UDP address(es), comma-separated chain members head first")
	locks := flag.Uint("locks", 1024, "lock ID space (1..N)")
	modeStr := flag.String("mode", "exclusive", "lock mode: shared|exclusive")
	concurrency := flag.Int("concurrency", 32, "concurrent workers")
	duration := flag.Duration("duration", 5*time.Second, "run duration")
	think := flag.Duration("think", 0, "hold time per lock")
	timeout := flag.Duration("timeout", 2*time.Second, "per-acquire timeout")
	tenant := flag.Uint("tenant", 0, "tenant ID stamped on every acquire")
	flag.Parse()

	mode := netlock.Exclusive
	if *modeStr == "shared" {
		mode = netlock.Shared
	}

	var wg sync.WaitGroup
	var grants, timeouts, rejects atomic.Int64
	var mu sync.Mutex
	var lat stats.Histogram
	stop := time.Now().Add(*duration)

	var announced atomic.Uint64
	for w := 0; w < *concurrency; w++ {
		c, err := transport.NewClientConfig(transport.ClientConfig{
			Switches: strings.Split(*swAddr, ","),
			OnFailover: func(epoch uint64, head string) {
				// Every worker's client sees the announcement; log each
				// epoch once.
				if old := announced.Load(); epoch > old && announced.CompareAndSwap(old, epoch) {
					log.Printf("lockclient: chain epoch %d, head now %s", epoch, head)
				}
			},
		})
		if err != nil {
			log.Fatalf("client: %v", err)
		}
		defer c.Close()
		wg.Add(1)
		go func(c *transport.Client, seed uint32) {
			defer wg.Done()
			id := seed
			for time.Now().Before(stop) {
				id = id*1664525 + 1013904223 // LCG walk over the lock space
				lock := id%uint32(*locks) + 1
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), *timeout)
				g, err := c.Acquire(ctx, lock, mode, netlock.WithTenant(uint8(*tenant)))
				cancel()
				if err != nil {
					switch {
					case errors.Is(err, netlock.ErrQueueOverflow),
						errors.Is(err, netlock.ErrQuotaExceeded):
						rejects.Add(1)
					default:
						timeouts.Add(1)
					}
					continue
				}
				d := time.Since(t0)
				mu.Lock()
				lat.Record(d.Nanoseconds())
				mu.Unlock()
				grants.Add(1)
				if *think > 0 {
					time.Sleep(*think)
				}
				g.Release()
			}
		}(c, uint32(w)+1)
	}
	wg.Wait()

	secs := duration.Seconds()
	mu.Lock()
	sum := lat.Summarize()
	mu.Unlock()
	fmt.Printf("grants: %d (%.0f locks/s), timeouts: %d, rejects: %d\n",
		grants.Load(), float64(grants.Load())/secs, timeouts.Load(), rejects.Load())
	fmt.Printf("latency: %v\n", sum)
}
