package scenario

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
)

// runReaders is the reader-mostly workload: 95% shared acquisitions over
// a hot lock set with a 5% writer mix, under short leases. On the
// embedded plane a fraction of readers "crash" — they abandon their
// grant without releasing — and the lease sweep must reclaim every one:
// after the load drains, an exclusive writer must get through each lock,
// and the lease-expiry counter must cover the abandoned grants. The UDP
// leg runs the same shared/exclusive mix under chaos without abandonment
// (crash-reclaim semantics over the wire are a switch-sweep concern the
// conformance suite owns).
func runReaders(cfg Config) (*Summary, error) {
	const (
		hotSet   = uint32(16)
		workers  = 6
		lease    = 25 * time.Millisecond
		abandonP = 0.02 // per shared grant, embedded only
	)
	opsPer := 2000
	if cfg.Short {
		opsPer = 250
	}
	if cfg.Plane == "udp" {
		opsPer /= 4
	}
	embedded := cfg.Plane != "udp"

	pc := PlaneConfig{
		Kind:    cfg.Plane,
		Seed:    cfg.Seed,
		Chaos:   cfg.Chaos,
		Workers: workers,
		Embedded: netlock.Config{
			Shards:         2,
			Servers:        1,
			SwitchSlots:    128,
			MaxSwitchLocks: 16,
			DefaultLease:   lease,
			SweepInterval:  time.Millisecond,
			Metrics:        true,
		},
		DP:      switchdp.Config{MaxLocks: 16, TotalSlots: 128, Priorities: 1},
		Servers: 1,
		Server:  lockserver.Config{},
	}
	for id := uint32(1); id <= hotSet/2; id++ {
		pc.SwitchLocks = append(pc.SwitchLocks, ctrlplane.SwitchLock{ID: id, Slots: 8})
	}
	plane, err := NewPlane(pc)
	if err != nil {
		return nil, err
	}
	defer plane.Close()

	rec := newRecorder()
	lat := &latencies{}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var abandoned atomic.Int64
	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			for i := 0; i < opsPer; i++ {
				id := uint32(rng.Intn(int(hotSet))) + 1
				excl := rng.Float64() < 0.05
				mode := netlock.Shared
				if excl {
					mode = netlock.Exclusive
				}
				s := time.Now()
				h, err := plane.Acquire(ctx, w, id, mode)
				if err != nil {
					errs[w] = failf(cfg.Seed, "scenario readers: worker %d acquire lock %d: %v", w, id, err)
					return
				}
				lat.add(time.Since(s))
				rec.granted(id, h.Txn(), excl, 0, 0)
				if embedded && !excl && rng.Float64() < abandonP {
					// Crashed reader: never releases. The lease sweep
					// must reclaim the share; the trace records the
					// grant as lost so conservation still holds.
					rec.lost(id, h.Txn(), excl)
					abandoned.Add(1)
					continue
				}
				rec.released(id, h.Txn(), excl, 0)
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

	var expiries uint64
	if embedded {
		// Let the sweep reclaim everything the crashed readers stranded,
		// then prove reclamation: an exclusive writer must get through
		// every hot lock.
		time.Sleep(3 * lease)
		for id := uint32(1); id <= hotSet; id++ {
			wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
			h, err := plane.Acquire(wctx, 0, id, netlock.Exclusive)
			wcancel()
			if err != nil {
				return nil, failf(cfg.Seed, "scenario readers: post-crash exclusive on lock %d never granted (lease reclaim failed): %v", id, err)
			}
			rec.granted(id, h.Txn(), true, 0, 0)
			rec.released(id, h.Txn(), true, 0)
			h.Release()
		}
		if ms, ok := plane.(MetricsSource); ok {
			if snap := ms.Metrics(); snap != nil {
				expiries = snap.Counter(obs.CtrLeaseExpiries)
			}
		}
		if ab := uint64(abandoned.Load()); expiries < ab {
			return nil, failf(cfg.Seed, "scenario readers: %d grants abandoned but only %d lease expiries", ab, expiries)
		}
	}

	if v := rec.quiesce(); v != nil {
		return nil, failf(cfg.Seed, "scenario readers: trace: %v", v)
	}
	grants, _, _ := rec.stats()
	if grants < workers*opsPer {
		return nil, failf(cfg.Seed, "scenario readers: vacuous run: %d grants", grants)
	}

	p50, p99 := lat.percentiles()
	return &Summary{
		Name:          "readers",
		Plane:         plane.Name(),
		Seed:          cfg.Seed,
		Chaos:         cfg.Chaos,
		DurationSec:   elapsed.Seconds(),
		Ops:           grants,
		Throughput:    float64(grants) / elapsed.Seconds(),
		P50us:         p50,
		P99us:         p99,
		LeaseExpiries: expiries,
		Extra:         map[string]float64{"abandoned": float64(abandoned.Load())},
	}, nil
}
