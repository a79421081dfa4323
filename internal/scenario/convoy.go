package scenario

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
)

// runConvoy builds a classic lock convoy with priority inversion: a few
// low-priority hogs hold one hot lock for long stretches while
// high-priority workers need it for microseconds. The scenario measures
// per-class latency (the inversion figure), checks no worker starves
// (every closed loop completes and every worker is granted), and reports
// a Jain fairness index over per-worker mean waits.
func runConvoy(cfg Config) (*Summary, error) {
	const (
		hotLock     = uint32(1)
		highWorkers = 3
		lowWorkers  = 3
	)
	workers := highWorkers + lowWorkers
	opsPer := 150
	holdLow := 1500 * time.Microsecond
	holdHigh := 20 * time.Microsecond
	if cfg.Short {
		opsPer = 40
	}
	if cfg.Plane == "udp" {
		opsPer /= 2
	}

	pc := PlaneConfig{
		Kind:    cfg.Plane,
		Seed:    cfg.Seed,
		Chaos:   cfg.Chaos,
		Workers: workers,
		Embedded: netlock.Config{
			Shards:         1,
			Servers:        1,
			SwitchSlots:    64,
			MaxSwitchLocks: 8,
			Priorities:     2,
		},
		DP:          switchdp.Config{MaxLocks: 8, TotalSlots: 64, Priorities: 2},
		Servers:     1,
		Server:      lockserver.Config{Priorities: 2},
		SwitchLocks: []ctrlplane.SwitchLock{{ID: hotLock, Slots: 16}},
	}
	plane, err := NewPlane(pc)
	if err != nil {
		return nil, err
	}
	defer plane.Close()

	rec := newRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type workerStat struct {
		grants    int
		totalWait time.Duration
		lat       latencies
	}
	stats := make([]workerStat, workers)

	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			high := w < highWorkers
			prio := uint8(1) // low
			hold := holdLow
			if high {
				prio = 0
				hold = holdHigh
			}
			for i := 0; i < opsPer; i++ {
				s := time.Now()
				h, err := plane.Acquire(ctx, w, hotLock, netlock.Exclusive, netlock.WithPriority(prio))
				if err != nil {
					errs[w] = failf(cfg.Seed, "scenario convoy: worker %d acquire: %v", w, err)
					return
				}
				wait := time.Since(s)
				stats[w].grants++
				stats[w].totalWait += wait
				stats[w].lat.add(wait)
				rec.granted(hotLock, h.Txn(), true, prio, 0)
				// Hold: the hog sleeps with the lock, convoying everyone.
				time.Sleep(hold + time.Duration(rng.Intn(int(hold/2)+1)))
				rec.released(hotLock, h.Txn(), true, prio)
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
		return nil, failf(cfg.Seed, "scenario convoy: trace: %v", v)
	}
	// Starvation check: a closed loop that completed got all its grants;
	// additionally every worker must have been granted at least once.
	totalGrants := 0
	for w := range stats {
		if stats[w].grants == 0 {
			return nil, failf(cfg.Seed, "scenario convoy: worker %d starved (0 grants)", w)
		}
		totalGrants += stats[w].grants
	}
	if want := workers * opsPer; totalGrants != want {
		return nil, failf(cfg.Seed, "scenario convoy: %d/%d grants", totalGrants, want)
	}

	// Jain index over per-worker mean waits: 1.0 = perfectly fair, 1/n =
	// one worker absorbs all the waiting.
	var sumMean, sumSq float64
	for w := range stats {
		m := float64(stats[w].totalWait) / float64(stats[w].grants)
		sumMean += m
		sumSq += m * m
	}
	jain := 0.0
	if sumSq > 0 {
		jain = sumMean * sumMean / (float64(workers) * sumSq)
	}

	all := &latencies{}
	for w := range stats {
		all.mu.Lock() // merge; no concurrency here
		all.samples = append(all.samples, stats[w].lat.samples...)
		all.mu.Unlock()
	}
	p50, p99 := all.percentiles()

	classP99 := func(lo, hi int) float64 {
		merged := &latencies{}
		for w := lo; w < hi; w++ {
			merged.samples = append(merged.samples, stats[w].lat.samples...)
		}
		_, p99 := merged.percentiles()
		return p99
	}

	return &Summary{
		Name:        "convoy",
		Plane:       plane.Name(),
		Seed:        cfg.Seed,
		Chaos:       cfg.Chaos,
		DurationSec: elapsed.Seconds(),
		Ops:         totalGrants,
		Throughput:  float64(totalGrants) / elapsed.Seconds(),
		P50us:       p50,
		P99us:       p99,
		Extra: map[string]float64{
			"jain":        jain,
			"p99_high_us": classP99(0, highWorkers),
			"p99_low_us":  classP99(highWorkers, workers),
		},
	}, nil
}
