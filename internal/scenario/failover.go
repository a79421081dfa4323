package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/switchdp"
)

// The failover scenario kills rack nodes under live 2PL-style traffic and
// requires that no granted lock is lost and no lock is granted twice.
//
// Workers run ordered-acquire transactions (each lock set is taken in
// ascending ID order — deadlock-free two-phase locking, so every stall is
// the fault's fault, not a cycle's). A coordinator watches commit
// progress and injects faults through the plane's FaultInjector:
//
//   - udp plane: a 3-member replicated switch chain; the chain head is
//     killed at one third of the run and the new head at two thirds,
//     driving the rack through epochs 1→2→3 while acquires are in flight.
//     Clients re-target via OpEpoch announcements; grants held across the
//     kills come from the replicas' caches.
//   - embedded plane: lock server 0 fails at one third of the run and its
//     locks are reassigned to server 1 (§4.5) while workers hold and
//     request them.
//
// Every grant and release is recorded into internal/check: mutual
// exclusion and no-duplicate-grant catch a double grant across the epoch
// boundary, conservation at quiescence catches a lost one, and the
// check.Holders snapshot must be empty once the sweep drains.
type failoverParams struct {
	workers     int
	txnsPer     int
	lockPool    int
	locksPerTxn int
	think       time.Duration
	timeout     time.Duration
}

func failoverSizes(cfg Config) failoverParams {
	p := failoverParams{
		workers:     4,
		txnsPer:     30,
		lockPool:    8,
		locksPerTxn: 3,
		think:       200 * time.Microsecond,
		timeout:     60 * time.Second,
	}
	if cfg.Short {
		p.txnsPer = 8
		p.timeout = 30 * time.Second
	}
	if cfg.Plane == "udp" {
		// Chain RTTs and post-kill retransmits make each lock slower.
		p.txnsPer /= 2
		if p.txnsPer < 4 {
			p.txnsPer = 4 // at least one txn per fault phase per worker
		}
	}
	return p
}

func runFailoverScenario(cfg Config) (*Summary, error) {
	pr := failoverSizes(cfg)
	pc := PlaneConfig{
		Kind:     cfg.Plane,
		Seed:     cfg.Seed,
		Chaos:    cfg.Chaos,
		Workers:  pr.workers,
		Switches: 3, // udp: replicated chain, two survivable head kills
		Embedded: netlock.Config{
			Shards:         2,
			Servers:        2,
			SwitchSlots:    64,
			MaxSwitchLocks: 16,
		},
		DP: switchdp.Config{MaxLocks: 16, TotalSlots: 64},
	}
	// Half the pool switch-resident, half server-owned, so the kills hit
	// grants cached in the chain and grants queued at the servers.
	for id := 1; id <= pr.lockPool/2; id++ {
		pc.SwitchLocks = append(pc.SwitchLocks, ctrlplane.SwitchLock{ID: uint32(id), Slots: 8})
	}
	plane, err := NewPlane(pc)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	fi, ok := plane.(FaultInjector)
	if !ok {
		return nil, fmt.Errorf("scenario failover: plane %s has no FaultInjector", plane.Name())
	}

	rec := newRecorder()
	lat := &latencies{}
	var commits atomic.Int64
	want := pr.workers * pr.txnsPer

	ctx, cancel := context.WithTimeout(context.Background(), pr.timeout)
	defer cancel()

	// The coordinator fires each fault once its commit milestone passes, so
	// the kills land mid-sweep regardless of plane speed.
	type fault struct {
		at     int64
		inject func() error
		name   string
	}
	var faults []fault
	if plane.Name() == "udp" {
		faults = []fault{
			{int64(want) / 3, fi.FailHead, "head-kill-1"},
			{2 * int64(want) / 3, fi.FailHead, "head-kill-2"},
		}
	} else {
		faults = []fault{
			{int64(want) / 3, func() error { return fi.FailServer(0) }, "server-churn"},
		}
	}
	var injected atomic.Int64
	faultErr := make(chan error, len(faults))
	stopFaults := make(chan struct{})
	var faultWG sync.WaitGroup
	faultWG.Add(1)
	go func() {
		defer faultWG.Done()
		next := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for next < len(faults) {
			select {
			case <-stopFaults:
				return
			case <-tick.C:
			}
			if commits.Load() < faults[next].at {
				continue
			}
			if err := faults[next].inject(); err != nil {
				faultErr <- fmt.Errorf("%s: %w", faults[next].name, err)
				return
			}
			injected.Add(1)
			next++
		}
	}()

	start := time.Now()
	errs := make([]error, pr.workers)
	var wg sync.WaitGroup
	for w := 0; w < pr.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			for i := 0; i < pr.txnsPer; i++ {
				set := pickLocks(rng, pr.lockPool, pr.locksPerTxn)
				sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
				var held []heldLock
				for _, lk := range set {
					t0 := time.Now()
					h, err := plane.Acquire(ctx, w, lk, netlock.Exclusive)
					lat.add(time.Since(t0))
					if err != nil {
						errs[w] = fmt.Errorf("txn %d lock %d: %w", i, lk, err)
						for _, hl := range held {
							rec.released(hl.lock, hl.h.Txn(), true, 0)
							hl.h.Release()
						}
						return
					}
					rec.granted(lk, h.Txn(), true, 0, 0)
					held = append(held, heldLock{lk, h})
				}
				if pr.think > 0 {
					time.Sleep(pr.think)
				}
				for j := len(held) - 1; j >= 0; j-- {
					rec.released(held[j].lock, held[j].h.Txn(), true, 0)
					held[j].h.Release()
				}
				commits.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopFaults)
	faultWG.Wait()

	select {
	case err := <-faultErr:
		return nil, failf(cfg.Seed, "scenario failover: %v", err)
	default:
	}
	for w, err := range errs {
		if err != nil {
			return nil, failf(cfg.Seed, "scenario failover: worker %d wedged: %v", w, err)
		}
	}
	if got := injected.Load(); got != int64(len(faults)) {
		return nil, failf(cfg.Seed, "scenario failover: %d/%d faults injected (run finished too fast?)", got, len(faults))
	}
	if v := rec.quiesce(); v != nil {
		return nil, failf(cfg.Seed, "scenario failover: trace: %v", v)
	}
	if h := rec.holders(); len(h) != 0 {
		return nil, failf(cfg.Seed, "scenario failover: %d locks still held after the sweep drained: %v", len(h), h)
	}
	if c := int(commits.Load()); c != want {
		return nil, failf(cfg.Seed, "scenario failover: %d/%d transactions committed", c, want)
	}
	grants, _, releases := rec.stats()
	if grants == 0 || grants != releases {
		return nil, failf(cfg.Seed, "scenario failover: %d grants vs %d releases", grants, releases)
	}

	p50, p99 := lat.percentiles()
	return &Summary{
		Name:        "failover",
		Plane:       plane.Name(),
		Seed:        cfg.Seed,
		Chaos:       cfg.Chaos,
		DurationSec: elapsed.Seconds(),
		Ops:         grants,
		Throughput:  float64(grants) / elapsed.Seconds(),
		P50us:       p50,
		P99us:       p99,
		Commits:     int(commits.Load()),
		Extra: map[string]float64{
			"faults_injected": float64(injected.Load()),
		},
	}, nil
}
