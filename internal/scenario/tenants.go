package scenario

import (
	"context"
	"errors"
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

// runTenants stresses per-tenant isolation: one worker per tenant over a
// disjoint lock range (so every grant is immediate and throughput is
// limited only by the meter), with the first two wire tenants capped at a
// tight quota and everyone else effectively uncapped. Capped tenants must
// observe quota rejects; uncapped tenants must observe none — a capped
// tenant's pressure may not leak into a neighbour's admission. On the
// embedded plane the obs per-tenant grant counters must agree exactly
// with the trace recorder's per-tenant counts.
//
// The full-size embedded run storms 1024 workers — four times the wire
// header's uint8 tenant space — folded 4:1 onto the 256 wire tenant IDs.
// Counters aggregate per wire ID, so the obs-vs-trace equality stays
// exact through the fold. -short keeps the historical 8-tenant size.
//
// Note the p4sim meter rejects tenants with no configured cell, so with
// Isolation on every tenant — including "uncapped" ones — needs an
// explicit quota.
func runTenants(cfg Config) (*Summary, error) {
	const nCapped = 2
	// The embedded plane turns over hundreds of kops/s, so a 2000/s cap
	// bites immediately; the UDP rack under chaos runs each op in
	// milliseconds, so its cap must sit well under the achievable rate or
	// the meter never fires.
	cappedRate, cappedBurst := 2000.0, 10.0
	tenants := 1024
	opsPer := 200
	if cfg.Short {
		tenants = 8
		opsPer = 120
	}
	if cfg.Plane == "udp" {
		tenants = 8
		opsPer = 60
		cappedRate, cappedBurst = 50.0, 5.0
	}

	// Workers beyond the wire header's uint8 tenant space fold onto it
	// 4:1; all per-tenant accounting below is per wire ID.
	wireTenants := tenants
	if wireTenants > obs.NumTenants {
		wireTenants = obs.NumTenants
	}

	pc := PlaneConfig{
		Kind:    cfg.Plane,
		Seed:    cfg.Seed,
		Chaos:   cfg.Chaos,
		Workers: tenants,
		Embedded: netlock.Config{
			Shards:         2,
			Servers:        2,
			SwitchSlots:    64,
			MaxSwitchLocks: 8,
			Isolation:      true,
			Metrics:        true,
		},
		DP:      switchdp.Config{MaxLocks: 8, TotalSlots: 64, Priorities: 1, Isolation: true},
		Servers: 2,
		Server:  lockserver.Config{},
	}
	for t := 0; t < wireTenants; t++ {
		q := ctrlplane.TenantQuota{Tenant: uint8(t), PerSec: 1e9, Burst: 1e6}
		if t < nCapped {
			q.PerSec, q.Burst = cappedRate, cappedBurst
		}
		pc.Quotas = append(pc.Quotas, q)
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

	// Per wire-tenant counters: workers folding onto one wire ID share a
	// slot, so the adds are atomic.
	rejects := make([]int64, wireTenants)
	grants := make([]int64, wireTenants)
	start := time.Now()
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for w := 0; w < tenants; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := w % wireTenants // wire tenant ID this worker folds onto
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			base := uint32(w)*100 + 1 // lock range disjoint per WORKER
			for i := 0; i < opsPer; i++ {
				id := base + uint32(rng.Intn(50))
				s := time.Now()
				h, err := plane.Acquire(ctx, w, id, netlock.Exclusive, netlock.WithTenant(uint8(t)))
				if err != nil {
					if errors.Is(err, netlock.ErrQuotaExceeded) {
						atomic.AddInt64(&rejects[t], 1)
						continue
					}
					errs[w] = failf(cfg.Seed, "scenario tenants: worker %d (tenant %d) acquire lock %d: %v", w, t, id, err)
					return
				}
				lat.add(time.Since(s))
				atomic.AddInt64(&grants[t], 1)
				rec.granted(id, h.Txn(), true, 0, uint8(t))
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
		return nil, failf(cfg.Seed, "scenario tenants: trace: %v", v)
	}

	var totalRejects, totalGrants int64
	for t := 0; t < wireTenants; t++ {
		totalRejects += rejects[t]
		totalGrants += grants[t]
		if t < nCapped {
			if rejects[t] == 0 {
				return nil, failf(cfg.Seed, "scenario tenants: capped tenant %d saw no quota rejects over %d ops", t, opsPer)
			}
			if grants[t] == 0 {
				return nil, failf(cfg.Seed, "scenario tenants: capped tenant %d fully starved (burst should admit some)", t)
			}
		} else if rejects[t] != 0 {
			return nil, failf(cfg.Seed, "scenario tenants: uncapped tenant %d hit %d quota rejects (isolation leak)", t, rejects[t])
		}
	}

	if ms, ok := plane.(MetricsSource); ok {
		if snap := ms.Metrics(); snap != nil {
			// Exact equality per wire tenant — the 4:1 worker fold
			// aggregates on both sides, so the comparison stays exact.
			for t := 0; t < wireTenants; t++ {
				if got, want := snap.TenantGrants[t], rec.tenantCount(uint8(t)); got != want {
					return nil, failf(cfg.Seed, "scenario tenants: obs counted %d grants for tenant %d, trace saw %d", got, t, want)
				}
			}
			// Tenants outside the active set must stay at zero.
			for t := wireTenants; t < obs.NumTenants; t++ {
				if snap.TenantGrants[t] != 0 {
					return nil, failf(cfg.Seed, "scenario tenants: phantom grants for inactive tenant %d", t)
				}
			}
		}
	}

	p50, p99 := lat.percentiles()
	return &Summary{
		Name:         "tenants",
		Plane:        plane.Name(),
		Seed:         cfg.Seed,
		Chaos:        cfg.Chaos,
		DurationSec:  elapsed.Seconds(),
		Ops:          int(totalGrants),
		Throughput:   float64(totalGrants) / elapsed.Seconds(),
		P50us:        p50,
		P99us:        p99,
		QuotaRejects: int(totalRejects),
		Extra: map[string]float64{
			"tenants":        float64(tenants),
			"wire_tenants":   float64(wireTenants),
			"capped_rejects": float64(rejects[0] + rejects[1]),
		},
	}, nil
}
