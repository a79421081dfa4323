package transport

import (
	"context"
	"runtime"
	"testing"
	"time"

	"netlock"
	"netlock/internal/switchdp"
)

// TestClientSteadyStateAllocs gates the client's steady-state send/receive
// path: once the pools and tables are warm, an acquire/release round trip
// must not allocate on the client side. The budget of 2 allocs/op absorbs
// runtime noise from the in-process switch and server goroutines (netpoll,
// map growth) that AllocsPerRun cannot separate out.
func TestClientSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	sw, servers := rack(t, 1, dpConfig())
	// Switch-resident lock: the steady-state round trip is one RTT with no
	// server hop, so the measurement covers exactly the client+switch path.
	installLock(t, sw, servers, 1, switchdp.Region{Left: 0, Right: 8})

	c, err := NewClientConfig(ClientConfig{
		Switch: sw.Addr(),
		// Park the retry sweep: a retransmit mid-measurement would be a
		// (legitimate) extra send, not steady state.
		RetryInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx := context.Background()
	op := func() {
		g, err := c.Acquire(ctx, 1, netlock.Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ReleaseWait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // warm pools, maps, and the egress free list
		op()
	}
	if avg := testing.AllocsPerRun(500, op); avg > 2 {
		t.Fatalf("steady-state acquire/release allocates %.2f/op, want <= 2", avg)
	}
}
