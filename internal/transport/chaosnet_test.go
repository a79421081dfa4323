package transport

import (
	"net/netip"
	"testing"
)

// Undelayed chaos delivery is synchronous, so after a Write the datagram
// (if it survived) is already queued in the destination inbox — the tests
// below assert on inbox occupancy directly instead of racing reads.

func chaosPair(t *testing.T, cn *ChaosNet) (a, b *chaosConn, bAddr netip.AddrPort) {
	t.Helper()
	pa, err := cn.Listen("10.99.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cn.Listen("10.99.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pa.Close(); pb.Close() })
	a, b = pa.(*chaosConn), pb.(*chaosConn)
	return a, b, b.local
}

func drain(c *chaosConn) int {
	n := 0
	for {
		select {
		case <-c.inbox:
			n++
		default:
			return n
		}
	}
}

// TestChaosNetDropAll: an edge link with Drop=1 delivers nothing, while a
// reliable<->reliable link under the same config delivers everything.
func TestChaosNetDropAll(t *testing.T) {
	cn := NewChaosNet(ChaosConfig{Seed: 1, Drop: 1.0})
	a, b, bAddr := chaosPair(t, cn)
	if _, err := a.WriteToUDPAddrPort([]byte("x"), bAddr); err != nil {
		t.Fatal(err)
	}
	if n := drain(b); n != 0 {
		t.Fatalf("edge link with Drop=1 delivered %d datagrams", n)
	}
	if err := cn.MarkReliable(a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := cn.MarkReliable(b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteToUDPAddrPort([]byte("y"), bAddr); err != nil {
		t.Fatal(err)
	}
	if n := drain(b); n != 1 {
		t.Fatalf("reliable link delivered %d datagrams, want 1", n)
	}
}

// TestChaosNetDupAll: Dup=1 delivers every edge datagram exactly twice.
func TestChaosNetDupAll(t *testing.T) {
	cn := NewChaosNet(ChaosConfig{Seed: 2, Dup: 1.0})
	a, b, bAddr := chaosPair(t, cn)
	if _, err := a.WriteToUDPAddrPort([]byte("x"), bAddr); err != nil {
		t.Fatal(err)
	}
	if n := drain(b); n != 2 {
		t.Fatalf("Dup=1 delivered %d copies, want 2", n)
	}
}

// TestChaosNetWaitDrainsDelays: Wait() blocks until every delayed
// delivery has landed, so a post-Wait inbox holds all survivors.
func TestChaosNetWaitDrainsDelays(t *testing.T) {
	cn := NewChaosNet(ChaosConfig{Seed: 3, Delay: 1.0})
	a, b, bAddr := chaosPair(t, cn)
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := a.WriteToUDPAddrPort([]byte{byte(i)}, bAddr); err != nil {
			t.Fatal(err)
		}
	}
	cn.Wait()
	if got := drain(b); got != n {
		t.Fatalf("after Wait, inbox held %d/%d delayed datagrams", got, n)
	}
}

// TestChaosNetDeterministic: two nets with the same seed and the same
// traffic make identical drop/dup decisions.
func TestChaosNetDeterministic(t *testing.T) {
	outcome := func() []int {
		cn := NewChaosNet(ChaosConfig{Seed: 42, Drop: 0.5, Dup: 0.5})
		a, b, bAddr := chaosPair(t, cn)
		var counts []int
		for i := 0; i < 32; i++ {
			if _, err := a.WriteToUDPAddrPort([]byte{byte(i)}, bAddr); err != nil {
				t.Fatal(err)
			}
			counts = append(counts, drain(b))
		}
		return counts
	}
	x, y := outcome(), outcome()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("seed 42 diverged at datagram %d: %d vs %d copies", i, x[i], y[i])
		}
	}
}
