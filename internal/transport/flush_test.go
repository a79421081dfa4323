package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netlock"
	"netlock/internal/switchdp"
)

// parkedSweepClient returns a client whose retry sweep never fires, so every
// frame it sends leaves through the flusher or a full-frame write.
func parkedSweepClient(t *testing.T, sw *Switch) *Client {
	t.Helper()
	c, err := NewClientConfig(ClientConfig{Switches: []string{sw.Addr()}, RetryInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClosedLoopHandoffNeedsNoTimer is the udp_excl_hot shape in miniature:
// 32 exclusive acquires in flight over 4 switch-resident locks, completions
// delivered by callback to one goroutine that releases and re-issues. Every
// grant after the first round is a release hand-off, so the run only makes
// progress if the ops a completion triggers leave without a timer: the
// sweep is parked and the client has no other clock.
func TestClosedLoopHandoffNeedsNoTimer(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const (
				locks    = 4
				inFlight = 32
				want     = 10000
			)
			sw, servers := rack(t, 1, dpConfig())
			for l := 0; l < locks; l++ {
				installLock(t, sw, servers, uint32(l)+1, switchdp.Region{Left: uint64(l) * 64, Right: uint64(l+1) * 64})
			}
			c := parkedSweepClient(t, sw)

			type done struct {
				g   *Grant
				err error
			}
			// Sized to the ops in flight, so no callback ever blocks the
			// client's read loop.
			ch := make(chan done, inFlight)
			cb := func(g *Grant, err error) { ch <- done{g, err} }
			ctx := context.Background()
			issue := func(n int) {
				if err := c.AcquireFunc(ctx, uint32(n%locks)+1, netlock.Exclusive, cb); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < inFlight; i++ {
				issue(i)
			}
			// Each round takes one completion plus whatever else has
			// arrived, holds all of them, then releases and re-issues: two
			// grants of one lock in a round is a double grant.
			var held [locks + 1]bool
			var round []*Grant
			failsafe := time.After(30 * time.Second)
			for n := 0; n < want; {
				round = round[:0]
				select {
				case d := <-ch:
					for take := true; take; {
						if d.err != nil {
							t.Fatal(d.err)
						}
						l := d.g.LockID()
						if held[l] {
							t.Fatalf("lock %d granted while held", l)
						}
						held[l] = true
						round = append(round, d.g)
						select {
						case d = <-ch:
						default:
							take = false
						}
					}
				case <-failsafe:
					t.Fatalf("%d of %d completions after 30s: a frame was left unsent", n, want)
				}
				for _, g := range round {
					held[g.LockID()] = false
					g.Release()
					issue(n)
					n++
				}
			}
			// Drain the last window so Close finds nothing granted.
			for i := 0; i < inFlight; i++ {
				select {
				case d := <-ch:
					if d.err == nil {
						d.g.Release()
					}
				case <-failsafe:
					t.Fatalf("%d of the last %d completions after 30s", i, inFlight)
				}
			}
		})
	}
}

// TestFlushKickStress hunts lost flusher wake-ups: 16 goroutines run
// blocking acquire/release on 2 exclusive switch locks with the retry sweep
// parked, so an op whose kick went missing is never sent and its Acquire
// runs into the deadline.
func TestFlushKickStress(t *testing.T) {
	const (
		workers = 16
		ops     = 2000
	)
	sw, servers := rack(t, 1, dpConfig())
	installLock(t, sw, servers, 1, switchdp.Region{Left: 0, Right: 64})
	installLock(t, sw, servers, 2, switchdp.Region{Left: 64, Right: 128})
	c := parkedSweepClient(t, sw)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var held [3]atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				l := uint32((w+i)%2) + 1
				g, err := c.Acquire(ctx, l, netlock.Exclusive)
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
				if !held[l].CompareAndSwap(false, true) {
					t.Errorf("lock %d granted while held", l)
				}
				held[l].Store(false)
				g.Release()
			}
		}(w)
	}
	wg.Wait()
}
