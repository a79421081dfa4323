package harness

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out: the one-RTT transaction mode (§4.1), resubmit amplification of
// the shared-grant walk (§4.2), per-lock memory allocation policies versus
// an equal-split static binding (§4.2's motivation for the shared queue),
// and lock coarsening for uniform tables (§4.5).

import (
	"netlock/internal/cluster"
	"netlock/internal/core"
	"netlock/internal/memalloc"
	"netlock/internal/tpcc"
	"netlock/internal/wire"
	"netlock/internal/workload"
)

// OneRTTResult compares the basic mode (grant to client, client fetches
// data separately) with the one-RTT mode (grant forwarded to the database
// server, which replies with the data) on an uncontended microbenchmark.
type OneRTTResult struct {
	// BasicLockUs is the basic-mode lock acquisition latency; the data
	// fetch costs an additional FetchUs on top.
	BasicLockUs float64
	FetchUs     float64
	// OneRTTUs is the one-RTT mode's combined lock+fetch latency.
	OneRTTUs float64
}

// AblationOneRTT measures the §4.1 one-RTT optimization: combined
// lock-acquisition and data-fetch in a single round trip versus the basic
// grant-then-fetch sequence.
func AblationOneRTT(o Options) OneRTTResult {
	run := func(oneRTT bool) cluster.Result {
		cfg := cluster.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Clients = 2
		// Low concurrency: the single database station must stay far from
		// saturation so the comparison measures path length, not queueing.
		cfg.WorkersPerClient = 2
		tb := cluster.NewTestbed(cfg)
		mgr := newNetLockManager(tb, 1, 1, 0)
		preinstall(mgr, 1000, 4)
		svc := cluster.NewNetLockService(tb, cluster.NetLockOptions{Manager: mgr})
		wl := &workload.Micro{Locks: 1000, Mode: wire.Exclusive, OneRTT: oneRTT}
		return tb.Run(svc, wl, o.scale(1e6, 5e6), o.scale(5e6, 20e6))
	}
	basic := run(false)
	one := run(true)
	cfg := cluster.DefaultConfig()
	// The basic mode's separate data fetch: client -> db -> client.
	fetch := float64(2*cfg.HopNs+cfg.DBServiceNs+2*cfg.ClientOverheadNs) / 1e3
	res := OneRTTResult{
		BasicLockUs: basic.LockLat.Mean / 1e3,
		FetchUs:     fetch,
		OneRTTUs:    one.LockLat.Mean / 1e3,
	}
	o.printf("Ablation: one-RTT transactions — basic lock %.1fus + fetch %.1fus = %.1fus total vs one-RTT %.1fus\n",
		res.BasicLockUs, res.FetchUs, res.BasicLockUs+res.FetchUs, res.OneRTTUs)
	return res
}

// ResubmitResult reports how many pipeline passes the data plane consumes
// per packet under a shared-heavy release pattern, the cost of Algorithm
// 2's grant walk.
type ResubmitResult struct {
	PassesPerPacket float64
	GrantsQueued    uint64
	Packets         uint64
}

// AblationResubmit measures resubmit amplification: exclusive releases that
// hand a run of shared requests to the queue resubmit once per granted
// request (Figure 6, exclusive -> shared), so shared-heavy contention
// multiplies switch occupancy.
func AblationResubmit(o Options) ResubmitResult {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Clients = 8
	cfg.WorkersPerClient = 16
	tb := cluster.NewTestbed(cfg)
	mgr := newNetLockManager(tb, 1, 1, 0)
	preinstall(mgr, 4, 512)
	svc := cluster.NewNetLockService(tb, cluster.NetLockOptions{Manager: mgr})
	// 10% exclusive: every exclusive release grants a run of shared
	// requests via the resubmit walk.
	wl := &workload.Mixed{Locks: 4, ExclusiveFraction: 0.1, ThinkNs: 2_000}
	tb.Run(svc, wl, o.scale(1e6, 5e6), o.scale(10e6, 40e6))
	pipe := mgr.Switch().Pipeline()
	res := ResubmitResult{
		PassesPerPacket: float64(pipe.Passes()) / float64(pipe.Packets()),
		GrantsQueued:    mgr.Switch().Stats().GrantsQueued,
		Packets:         pipe.Packets(),
	}
	o.printf("Ablation: resubmit amplification — %.2f passes/packet over %d packets (%d walk grants)\n",
		res.PassesPerPacket, res.Packets, res.GrantsQueued)
	return res
}

// AllocPolicyRow compares memory-allocation policies under a skewed
// microbenchmark.
type AllocPolicyRow struct {
	Policy   string
	LockMRPS float64
	AvgUs    float64
}

// AblationAllocPolicies compares three ways to divide the switch queue
// memory under a Zipf-skewed workload: the optimal knapsack (§4.3), a
// random split (Figure 13's strawman), and an equal static split — the
// fragmentation-prone per-lock binding whose weakness motivates the shared
// queue design (§4.2).
func AblationAllocPolicies(o Options) []AllocPolicyRow {
	equalSplit := func(demands []memalloc.Demand, capacity uint64) memalloc.Plan {
		if len(demands) == 0 {
			return memalloc.Plan{}
		}
		per := capacity / uint64(len(demands))
		if per == 0 {
			per = 1
		}
		var plan memalloc.Plan
		used := uint64(0)
		for _, d := range demands {
			if used+per > capacity {
				plan.Server = append(plan.Server, d.LockID)
				continue
			}
			plan.Switch = append(plan.Switch, memalloc.Allocation{LockID: d.LockID, Slots: per})
			used += per
			if d.Contention > 0 {
				s := per
				if s > d.Contention {
					s = d.Contention
				}
				plan.GuaranteedRate += d.Rate * float64(s) / float64(d.Contention)
			}
		}
		return plan
	}
	policies := []struct {
		name  string
		alloc core.Allocator
	}{
		{"knapsack", nil},
		{"random", randomAllocator(o.Seed + 1)},
		{"equal-split", equalSplit},
	}
	var rows []AllocPolicyRow
	for _, p := range policies {
		cfg := cluster.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Clients = 8
		cfg.WorkersPerClient = 24
		tb := cluster.NewTestbed(cfg)
		// Small switch memory so policy matters.
		mgr := newNetLockManager(tb, 2, 1, 2000)
		svc := cluster.NewNetLockService(tb, cluster.NetLockOptions{
			Manager:      mgr,
			AllocEveryNs: o.scale(10e6, 20e6),
			Allocator:    p.alloc,
		})
		wl := &workload.Micro{Locks: 10_000, Mode: wire.Exclusive, ZipfS: 1.3, ThinkNs: 2_000}
		res := tb.Run(svc, wl, o.scale(25e6, 80e6), o.scale(40e6, 150e6))
		rows = append(rows, AllocPolicyRow{
			Policy:   p.name,
			LockMRPS: res.LockRate / 1e6,
			AvgUs:    res.LockLat.Mean / 1e3,
		})
	}
	o.printf("Ablation: allocation policies under Zipf(1.3), 2000 switch slots\n")
	for _, r := range rows {
		o.printf("  %-12s %7.3f MRPS avg=%.1fus\n", r.Policy, r.LockMRPS, r.AvgUs)
	}
	return rows
}

// CoarseningRow compares stock-lock granularities under TPC-C high
// contention (§4.5's coarsening rule for uniform tables).
type CoarseningRow struct {
	Granularity string
	TxnMTPS     float64
	AvgLatMs    float64
	SwitchShare float64 // fraction of grants processed by the switch
}

// AblationCoarsening quantifies the §4.5 coarse-grained locking rule:
// row-granularity stock locks are individually cold and unplaceable, so
// most traffic pays the server path; page-granularity locks fit the switch.
func AblationCoarsening(o Options) []CoarseningRow {
	run := func(pages int) CoarseningRow {
		cfg := cluster.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.Clients = 10
		cfg.WorkersPerClient = 24
		tb := cluster.NewTestbed(cfg)
		mgr := newNetLockManager(tb, 2, 1, 0)
		svc := cluster.NewNetLockService(tb, cluster.NetLockOptions{
			Manager:      mgr,
			AllocEveryNs: o.scale(10e6, 25e6),
		})
		wcfg := tpcc.HighContention(cfg.Clients)
		wcfg.StockPages = pages
		wl := tpcc.New(wcfg)
		// Long warmup: placement needs several rounds to install thousands
		// of page locks (a busy lock moves once a round finds it idle).
		res := tb.Run(svc, wl, o.scale(100e6, 200e6), o.scale(60e6, 200e6))
		st := mgr.Switch().Stats()
		sw := float64(st.GrantsImmediate + st.GrantsQueued)
		var srv float64
		for i := 0; i < mgr.NumServers(); i++ {
			ss := mgr.Server(i).Stats()
			srv += float64(ss.GrantsImmediate + ss.GrantsQueued)
		}
		name := "row-level"
		if pages > 0 {
			name = "page-level"
		}
		return CoarseningRow{
			Granularity: name,
			TxnMTPS:     res.TxnRate / 1e6,
			AvgLatMs:    res.TxnLat.Mean / 1e6,
			SwitchShare: sw / (sw + srv),
		}
	}
	rows := []CoarseningRow{run(0), run(500)}
	o.printf("Ablation: stock-lock coarsening (TPC-C high contention)\n")
	for _, r := range rows {
		o.printf("  %-10s %6.3f MTPS avg=%.3fms switch-share=%.0f%%\n",
			r.Granularity, r.TxnMTPS, r.AvgLatMs, r.SwitchShare*100)
	}
	return rows
}
