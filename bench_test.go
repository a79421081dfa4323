package netlock

// Benchmarks regenerating the paper's evaluation (§6): one testing.B target
// per table/figure. Each bench runs the corresponding experiment on the
// deterministic virtual-time testbed and reports the simulated metrics
// (MRPS/MTPS and latency) via b.ReportMetric; wall-clock ns/op measures how
// long the simulation takes, not the system under test.
//
// Run quick versions with:
//
//	go test -bench=Fig -benchtime=1x
//
// Full-scale sweeps are produced by cmd/benchrunner.

import (
	"context"
	"sync/atomic"
	"testing"

	"netlock/internal/harness"
)

func benchOpts() harness.Options { return harness.Options{Quick: true, Seed: 1} }

// BenchmarkCalibration verifies the capacity model against §5's constants:
// 18 MRPS client generation, 18 MRPS 8-core lock server.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := harness.CalibrationRun(benchOpts())
		b.ReportMetric(c.ClientGenMRPS, "client-MRPS")
		b.ReportMetric(c.Server8CoreMRPS, "server-MRPS")
	}
}

// BenchmarkFig8aSharedLocks: latency vs throughput, shared locks.
func BenchmarkFig8aSharedLocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig8aSharedLocks(benchOpts())
		last := pts[len(pts)-1]
		b.ReportMetric(last.AchievedMRPS, "MRPS")
		b.ReportMetric(last.MedianUs, "p50-us")
		b.ReportMetric(last.P99Us, "p99-us")
	}
}

// BenchmarkFig8bExclusiveNoContention: same, exclusive on disjoint sets.
func BenchmarkFig8bExclusiveNoContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig8bExclusiveNoContention(benchOpts())
		last := pts[len(pts)-1]
		b.ReportMetric(last.AchievedMRPS, "MRPS")
		b.ReportMetric(last.MedianUs, "p50-us")
	}
}

// BenchmarkFig8cdContention: throughput/latency vs lock-set size.
func BenchmarkFig8cdContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := harness.Fig8cdExclusiveContention(benchOpts())
		b.ReportMetric(pts[0].ThroughputMRPS, "minLocks-MRPS")
		b.ReportMetric(pts[len(pts)-1].ThroughputMRPS, "maxLocks-MRPS")
	}
}

// BenchmarkFig9SwitchVsServer: lock switch vs 1-8 core lock server.
func BenchmarkFig9SwitchVsServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Fig9SwitchVsServer(benchOpts())
		b.ReportMetric(rows[0].SwitchMRPS, "switch-MRPS")
		b.ReportMetric(rows[0].ServerMRPS[len(rows[0].ServerMRPS)-1], "server8-MRPS")
	}
}

func reportTPCC(b *testing.B, rows []harness.SystemRow) {
	b.Helper()
	for _, r := range rows {
		b.ReportMetric(r.TxnMTPS, r.System+"-"+r.Contention+"-MTPS")
	}
}

// BenchmarkFig10TPCCTenClients: four systems, TPC-C, 10 clients / 2 servers.
func BenchmarkFig10TPCCTenClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTPCC(b, harness.Fig10TPCC(benchOpts()))
	}
}

// BenchmarkFig11TPCCSixClients: four systems, TPC-C, 6 clients / 6 servers.
func BenchmarkFig11TPCCSixClients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTPCC(b, harness.Fig11TPCC(benchOpts()))
	}
}

// BenchmarkFig12aServiceDiff: priority-based service differentiation.
func BenchmarkFig12aServiceDiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := harness.Fig12aServiceDiff(benchOpts())
		tail := func(s harness.Series) float64 {
			pts := s.Points[len(s.Points)/2:]
			var sum float64
			for _, p := range pts {
				sum += p.Rate
			}
			return sum / float64(len(pts)) / 1e6
		}
		b.ReportMetric(tail(series[2]), "diff-low-MTPS")
		b.ReportMetric(tail(series[3]), "diff-high-MTPS")
	}
}

// BenchmarkFig12bIsolation: per-tenant quotas.
func BenchmarkFig12bIsolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Fig12bIsolation(benchOpts())
		b.ReportMetric(rows[1].Tenant1MTPS, "iso-t1-MTPS")
		b.ReportMetric(rows[1].Tenant2MTPS, "iso-t2-MTPS")
	}
}

// BenchmarkFig13aMemAlloc: knapsack vs random switch-memory allocation.
func BenchmarkFig13aMemAlloc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Fig13aMemAlloc(benchOpts())
		b.ReportMetric(rows[1].TotalMRPS, "knapsack-MRPS")
		b.ReportMetric(rows[0].TotalMRPS, "random-MRPS")
	}
}

// BenchmarkFig13bMemAllocCDF: transaction latency CDF under each allocator.
func BenchmarkFig13bMemAllocCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := harness.Fig13bMemAllocCDF(benchOpts())
		b.ReportMetric(float64(len(series[0].Points)), "cdf-points")
	}
}

// BenchmarkFig14aThinkTime: throughput vs switch memory by think time.
func BenchmarkFig14aThinkTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := harness.Fig14aThinkTime(benchOpts())
		last := len(series[0].MRPS) - 1
		b.ReportMetric(series[0].MRPS[last], "think0-MRPS")
		b.ReportMetric(series[len(series)-1].MRPS[last], "think100-MRPS")
	}
}

// BenchmarkFig14bAllocSweep: throughput vs switch memory by allocator.
func BenchmarkFig14bAllocSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := harness.Fig14bAllocSweep(benchOpts())
		last := len(series[0].MRPS) - 1
		b.ReportMetric(series[0].MRPS[last], "knapsack-MRPS")
		b.ReportMetric(series[1].MRPS[last], "random-MRPS")
	}
}

// BenchmarkFig15Failure: switch failure and reactivation.
func BenchmarkFig15Failure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig15Failure(benchOpts())
		b.ReportMetric(res.PreMRPS, "pre-MTPS")
		b.ReportMetric(res.DuringMRPS, "during-MTPS")
		b.ReportMetric(res.RecoveredMRPS, "recovered-MTPS")
	}
}

// BenchmarkEmbeddedAcquireRelease measures the embedded public API's
// acquire+release hot path (switch-resident lock, no contention).
func BenchmarkEmbeddedAcquireRelease(b *testing.B) {
	lm := New(Config{Servers: 1})
	defer lm.Close()
	ctx := context.Background()
	if err := lm.Preinstall(1, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lm.Acquire(ctx, 1, Exclusive)
		if err != nil {
			b.Fatal(err)
		}
		g.Release()
	}
}

// BenchmarkEmbeddedAcquireReleaseParallel measures the sharded hot path
// under b.RunParallel. "disjoint" gives each worker its own lock (locks
// land on different shards, so the sharded variants should scale with
// cores); "contended" funnels every worker through one exclusive lock.
// The 1shard variants pin Config.Shards to 1 and are the single-mutex
// baseline the sharded numbers are compared against (benchstat recipe in
// scripts/bench.sh). The embedded plane's end-to-end numbers are the
// emb_disjoint and emb_contended workloads of bench/.
func BenchmarkEmbeddedAcquireReleaseParallel(b *testing.B) {
	b.Run("disjoint/1shard", func(b *testing.B) { benchEmbeddedParallel(b, 1, true) })
	b.Run("disjoint/sharded", func(b *testing.B) { benchEmbeddedParallel(b, 0, true) })
	b.Run("contended/1shard", func(b *testing.B) { benchEmbeddedParallel(b, 1, false) })
	b.Run("contended/sharded", func(b *testing.B) { benchEmbeddedParallel(b, 0, false) })
}

// benchEmbeddedParallel runs acquire/release pairs from GOMAXPROCS workers.
// shards == 0 uses the Config default (GOMAXPROCS shards).
func benchEmbeddedParallel(b *testing.B, shards int, disjoint bool) {
	cfg := Config{Servers: 1}
	if shards > 0 {
		cfg.Shards = shards
	}
	lm := New(cfg)
	defer lm.Close()
	ctx := context.Background()

	// One lock per potential worker for the disjoint case; workers pick
	// distinct locks, which the manager spreads round-robin over shards.
	nLocks := 1
	if disjoint {
		nLocks = 2 * lm.Shards()
		if nLocks < 8 {
			nLocks = 8
		}
	}
	for l := 1; l <= nLocks; l++ {
		if err := lm.Preinstall(uint32(l), 1); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lock := uint32(1)
		if disjoint {
			lock = (next.Add(1)-1)%uint32(nLocks) + 1
		}
		for pb.Next() {
			g, err := lm.Acquire(ctx, lock, Exclusive)
			if err != nil {
				b.Error(err)
				return
			}
			g.Release()
		}
	})
}
