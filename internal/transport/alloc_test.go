package transport

import (
	"context"
	"runtime"
	"testing"
	"time"

	"netlock"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// TestFabricClientSteadyStateAllocs gates the fabric-mode hot path the same
// way TestClientSteadyStateAllocs gates single-rack mode: with the shard
// map stable and the pools warm, a batched acquire/release round trip that
// routes through the map to a rack must not allocate on the client side.
// The per-rack batch writers, the rack attribution lookup, and Grant.Rack
// all ride the same 2 allocs/op noise budget.
func TestFabricClientSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	m, err := wire.NewShardMap(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sws, servers := fabric(t, 2, m)
	// One switch-resident lock per rack so the measured round trip is one
	// RTT with no server hop on either rack.
	locks := make([]uint32, len(sws))
	for i, sw := range sws {
		locks[i] = lockOnRack(t, m, i)
		if err := installSwitchLock(sw, servers[i], locks[i], []switchdp.Region{{Left: 0, Right: 8}}); err != nil {
			t.Fatal(err)
		}
	}

	racks := make([][]string, len(sws))
	for i, sw := range sws {
		racks[i] = []string{sw.Addr()}
	}
	c, err := NewClientConfig(ClientConfig{
		Fabric: &FabricClientConfig{Racks: racks, Map: m},
		// Park the retry sweep: a retransmit mid-measurement would be a
		// (legitimate) extra send, not steady state.
		RetryInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx := context.Background()
	i := 0
	op := func() {
		lock := locks[i%len(locks)] // alternate racks so both paths stay hot
		i++
		g, err := c.Acquire(ctx, lock, netlock.Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ReleaseWait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < 200; n++ { // warm pools, maps, and the egress free list
		op()
	}
	if avg := testing.AllocsPerRun(500, op); avg > 2 {
		t.Fatalf("fabric steady-state acquire/release allocates %.2f/op, want <= 2", avg)
	}
}
