package transport

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"netlock"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
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
		Switches: []string{sw.Addr()},
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

// TestClientRetryPacing pins the retransmit cadence: against a peer that
// never answers, the first two copies of an acquire arrive at least
// RetryInterval apart, and the second within 3 × RetryInterval of the
// first. The bounds are loose on purpose; the sweep ticks at a quarter of
// the interval.
func TestClientRetryPacing(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	const retry = 100 * time.Millisecond
	c, err := NewClientConfig(ClientConfig{Switches: []string{peer.LocalAddr().String()}, RetryInterval: retry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	a, err := c.AcquireAsync(ctx, 7, netlock.Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Time
	buf := make([]byte, maxPacket)
	peer.SetReadDeadline(time.Now().Add(5 * retry))
	for len(arrivals) < 2 {
		n, _, err := peer.ReadFromUDPAddrPort(buf)
		if err != nil {
			t.Fatalf("copy %d of the acquire never arrived: %v", len(arrivals)+1, err)
		}
		var br wire.BatchReader
		var h wire.Header
		if br.Reset(buf[:n]) != nil {
			continue
		}
		for ok, _ := br.Next(&h); ok; ok, _ = br.Next(&h) {
			if h.Op == wire.OpAcquire && h.TxnID == a.Txn() {
				arrivals = append(arrivals, time.Now())
				break
			}
		}
	}
	cancel()
	a.Wait(ctx)
	if gap := arrivals[1].Sub(arrivals[0]); gap < retry || gap > 3*retry {
		t.Fatalf("second copy %v after the first, want within [%v, %v]", gap, retry, 3*retry)
	}
}
