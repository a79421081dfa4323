package netlock

import (
	"context"
	"testing"
	"time"

	"netlock/internal/obs"
)

// The embedded hot path must be allocation-free at steady state: once a
// lock is switch-resident and the pools are warm, an uncontended
// acquire+release pair performs zero heap allocations. This is the
// regression gate for the pooled grants, pooled waiter channels, reusable
// emit stacks, and the closure-free data-plane programs underneath.
func TestSteadyStateAcquireReleaseAllocFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "1shard", 4: "4shard"}[shards], func(t *testing.T) {
			testSteadyStateAllocFree(t, Config{Servers: 1, Shards: shards})
		})
	}
}

// The gate holds with the observability layer on: atomic counters and the
// striped histograms record without heap allocations, so enabling
// Config.Metrics must not cost allocs on the steady-state path.
func TestSteadyStateAllocFreeWithMetrics(t *testing.T) {
	testSteadyStateAllocFree(t, Config{Servers: 1, Shards: 1, Metrics: true})
}

// The gate holds with the online rebalancer enabled: the planner reads the
// same demand gauges placement already records, so wiring the loop
// (Config.RebalanceInterval) must not add a single alloc to the
// steady-state path. The interval is set far beyond the test's lifetime:
// the loop is live but idle, so the measurement sees only the hot path.
func TestSteadyStateAllocFreeWithRebalancer(t *testing.T) {
	testSteadyStateAllocFree(t, Config{Servers: 1, Shards: 1, RebalanceInterval: time.Hour})
}

func testSteadyStateAllocFree(t *testing.T, cfg Config) {
	lm := New(cfg)
	defer lm.Close()
	ctx := context.Background()

	// Warm: install lock 1 in the switch, then cycle enough to fill
	// every pool and grow the emit scratch stacks to their steady size.
	if err := lm.Preinstall(1, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g, err := lm.Acquire(ctx, 1, Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}

	var acqErr error
	allocs := testing.AllocsPerRun(500, func() {
		g, err := lm.Acquire(ctx, 1, Exclusive)
		if err != nil {
			acqErr = err
			return
		}
		g.Release()
	})
	if acqErr != nil {
		t.Fatal(acqErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state acquire+release allocates %v allocs/op, want 0", allocs)
	}
	if cfg.Metrics {
		sn := lm.Metrics()
		if sn.Counter(obs.CtrAcquires) == 0 || sn.Counter(obs.CtrGrants) == 0 {
			t.Fatal("metrics-enabled run recorded no acquires/grants")
		}
		if sn.Stage(obs.StageAcquireE2E).Count() == 0 {
			t.Fatal("metrics-enabled run recorded no end-to-end latency samples")
		}
	}
}
