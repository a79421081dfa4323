package scenario

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
	"netlock/internal/workload"
)

// runZipf stresses the memory-management path: Zipf-skewed traffic over a
// lock-ID space orders of magnitude larger than switch memory, so the
// knapsack allocator must keep promoting the current hot set into the
// switch and demoting what cooled off. On the embedded plane the
// Manager's rebalancer ticks concurrently with traffic and the summary
// reports its promote/demote churn; on the UDP rack the hottest prefix is
// pre-installed and everything else rides the server path.
func runZipf(cfg Config) (*Summary, error) {
	workers := 4
	lockSpace := uint32(2_000_000)
	opsPer := 4000
	if cfg.Short {
		lockSpace = 200_000
		opsPer = 500
	}
	if cfg.Plane == "udp" {
		lockSpace /= 40
		opsPer /= 4
	}

	pc := PlaneConfig{
		Kind:    cfg.Plane,
		Seed:    cfg.Seed,
		Chaos:   cfg.Chaos,
		Workers: workers,
		Embedded: netlock.Config{
			Shards:         2,
			Servers:        2,
			SwitchSlots:    256,
			MaxSwitchLocks: 32,
			Metrics:        true,
			// The rebalancer runs against live traffic — the
			// promote/demote path under fire, not a quiesced reshuffle.
			RebalanceInterval: 5 * time.Millisecond,
		},
		DP: switchdp.Config{MaxLocks: 16, TotalSlots: 128},
	}
	if cfg.Plane == "udp" {
		// Zipf rank 1 is the hottest ID; pin the hot prefix switch-resident.
		for id := uint32(1); id <= 12; id++ {
			pc.SwitchLocks = append(pc.SwitchLocks, ctrlplane.SwitchLock{ID: id, Slots: 8})
		}
	}
	plane, err := NewPlane(pc)
	if err != nil {
		return nil, err
	}
	defer plane.Close()

	rec := newRecorder()
	lat := &latencies{}
	gen := &workload.Micro{Locks: lockSpace, Mode: wire.Exclusive, ZipfS: 1.2}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			for i := 0; i < opsPer; i++ {
				id := gen.NextTxn(w, rng).Locks[0].LockID
				s := time.Now()
				h, err := plane.Acquire(ctx, w, id, netlock.Exclusive)
				if err != nil {
					errs[w] = failf(cfg.Seed, "scenario zipf: worker %d acquire lock %d: %v", w, id, err)
					return
				}
				lat.add(time.Since(s))
				rec.granted(id, h.Txn(), true, 0, 0)
				rec.released(id, h.Txn(), true, 0)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if v := rec.quiesce(); v != nil {
		return nil, failf(cfg.Seed, "scenario zipf: trace: %v", v)
	}
	grants, _, releases := rec.stats()
	if want := workers * opsPer; grants != want || releases != want {
		return nil, failf(cfg.Seed, "scenario zipf: vacuous run: %d grants, %d releases, want %d", grants, releases, want)
	}

	var installed, removed int
	if ep, ok := plane.(*embeddedPlane); ok {
		st := ep.m.RebalanceStats()
		installed, removed = int(st.Promotions), int(st.Demotions)
	}
	p50, p99 := lat.percentiles()
	return &Summary{
		Name:              "zipf",
		Plane:             plane.Name(),
		Seed:              cfg.Seed,
		Chaos:             cfg.Chaos,
		DurationSec:       elapsed.Seconds(),
		Ops:               grants,
		Throughput:        float64(grants) / elapsed.Seconds(),
		P50us:             p50,
		P99us:             p99,
		DistinctLocks:     int(lockSpace),
		EvictionInstalled: installed,
		EvictionRemoved:   removed,
	}, nil
}
