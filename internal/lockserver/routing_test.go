package lockserver

import "testing"

// TestRoutingRedirects: Home is RSSCore until a server is redirected, then
// follows the redirect chain; Check refuses what would break the directory.
func TestRoutingRedirects(t *testing.T) {
	r := NewRouting(3)
	for id := uint32(0); id < 64; id++ {
		if r.Home(id) != RSSCore(id, 3) {
			t.Fatalf("Home(%d) = %d, want RSSCore %d", id, r.Home(id), RSSCore(id, 3))
		}
	}
	if to, err := r.Redirect(0, 1); err != nil || to != 1 {
		t.Fatalf("Redirect(0, 1) = %d, %v", to, err)
	}
	// A redirect onto a redirected server lands on where that one resolves.
	if to, err := r.Redirect(2, 0); err != nil || to != 1 {
		t.Fatalf("Redirect(2, 0) = %d, %v; want 1", to, err)
	}
	for id := uint32(0); id < 64; id++ {
		if r.Home(id) != 1 {
			t.Fatalf("Home(%d) = %d after draining 0 and 2 into 1", id, r.Home(id))
		}
	}
	for _, c := range [][2]int{{1, 1}, {1, 0}, {1, 2}, {3, 1}, {1, -1}} {
		if _, err := r.Check(c[0], c[1]); err == nil {
			t.Errorf("Check(%d, %d) accepted", c[0], c[1])
		}
	}
	if idx := r.Grow(); idx != 3 {
		t.Fatalf("Grow() = %d, want 3", idx)
	}
	if r.Resolve(3) != 3 {
		t.Fatalf("new server 3 resolves to %d", r.Resolve(3))
	}
}

// TestRoutingHomeAllocatesNothing: Home sits on every switch-to-server
// forward, so it must stay a hash plus a map probe.
func TestRoutingHomeAllocatesNothing(t *testing.T) {
	r := NewRouting(4)
	if _, err := r.Redirect(1, 2); err != nil {
		t.Fatal(err)
	}
	id := uint32(0)
	if n := testing.AllocsPerRun(1000, func() { id++; _ = r.Home(id) }); n != 0 {
		t.Fatalf("Home allocates %.1f times per call", n)
	}
}
