package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netlock"
	"netlock/internal/harness"
)

// The -embedded mode measures the embedded front end's hot path (the
// sharded Acquire/Release API) with testing.Benchmark and folds in the
// simulated switch throughput from Fig 8a / Fig 9, emitting one JSON
// document per run so the bench trajectory is diffable across commits
// (compare with benchstat for the raw benches, or diff the JSON).

// embeddedBench is one measured benchmark in BENCH_embedded.json.
type embeddedBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MopsPerSec  float64 `json:"mops_per_sec"`
	Iterations  int     `json:"iterations"`
}

// embeddedReport is the BENCH_embedded.json document.
type embeddedReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_maxprocs"`
	Shards     int    `json:"shards"`

	Benchmarks map[string]embeddedBench `json:"benchmarks"`

	// SpeedupDisjoint is parallel-disjoint sharded ops/sec over the
	// 1-shard (single-mutex) baseline. Physical parallelism requires
	// NumCPU >= GoMaxProcs for this to reflect the sharding win.
	SpeedupDisjoint float64 `json:"speedup_disjoint_sharded_vs_1shard"`

	// Simulated data-plane throughput from the paper-figure harness
	// (virtual-time testbed, not wall clock).
	Fig8aMRPS       float64 `json:"fig8a_mrps"`
	Fig9SwitchMRPS  float64 `json:"fig9_switch_mrps"`
	Fig9Server8MRPS float64 `json:"fig9_server8_mrps"`
}

func summarize(r testing.BenchmarkResult) embeddedBench {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	mops := 0.0
	if ns > 0 {
		mops = 1e3 / ns // 1e9 ns/s / ns-per-op / 1e6 ops
	}
	return embeddedBench{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MopsPerSec:  mops,
		Iterations:  r.N,
	}
}

// warmManager builds a manager with locks 1..n switch-resident.
func warmManager(shards, nLocks int) (*netlock.Manager, error) {
	cfg := netlock.Config{Servers: 1}
	if shards > 0 {
		cfg.Shards = shards
	}
	return warmManagerCfg(cfg, nLocks)
}

// warmManagerCfg is warmManager with full config control (the -obs mode
// toggles Config.Metrics).
func warmManagerCfg(cfg netlock.Config, nLocks int) (*netlock.Manager, error) {
	lm := netlock.New(cfg)
	for l := 1; l <= nLocks; l++ {
		// One slot each: the residency a serial warm-up earns from the
		// knapsack allocator (measured contention 1).
		if err := lm.Preinstall(uint32(l), 1); err != nil {
			lm.Close()
			return nil, err
		}
	}
	return lm, nil
}

func benchSerial() (testing.BenchmarkResult, error) {
	lm, err := warmManager(0, 1)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer lm.Close()
	ctx := context.Background()
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := lm.Acquire(ctx, 1, netlock.Exclusive)
			if err != nil {
				b.Error(err)
				return
			}
			g.Release()
		}
	}), nil
}

func benchParallel(shards int, disjoint bool) (testing.BenchmarkResult, error) {
	nLocks := 1
	if disjoint {
		nLocks = 2 * runtime.GOMAXPROCS(0)
		if nLocks < 8 {
			nLocks = 8
		}
	}
	lm, err := warmManager(shards, nLocks)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	defer lm.Close()
	ctx := context.Background()
	return testing.Benchmark(func(b *testing.B) {
		var next atomic.Uint32
		b.RunParallel(func(pb *testing.PB) {
			lock := uint32(1)
			if disjoint {
				lock = (next.Add(1)-1)%uint32(nLocks) + 1
			}
			for pb.Next() {
				g, err := lm.Acquire(ctx, lock, netlock.Exclusive)
				if err != nil {
					b.Error(err)
					return
				}
				g.Release()
			}
		})
	}), nil
}

func runEmbedded(out string, quick bool, seed int64) error {
	rep := embeddedReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]embeddedBench),
	}
	probe := netlock.New(netlock.Config{Servers: 1})
	rep.Shards = probe.Shards()
	probe.Close()

	type spec struct {
		name     string
		run      func() (testing.BenchmarkResult, error)
		disjoint bool
	}
	specs := []spec{
		{"embedded_acquire_release", benchSerial, false},
		{"parallel_disjoint_1shard", func() (testing.BenchmarkResult, error) { return benchParallel(1, true) }, true},
		{"parallel_disjoint_sharded", func() (testing.BenchmarkResult, error) { return benchParallel(0, true) }, true},
		{"parallel_contended_1shard", func() (testing.BenchmarkResult, error) { return benchParallel(1, false) }, false},
		{"parallel_contended_sharded", func() (testing.BenchmarkResult, error) { return benchParallel(0, false) }, false},
	}
	for _, s := range specs {
		// Best of three: scheduling noise only ever slows a run down, so
		// the fastest repetition is the closest to the true cost.
		var best embeddedBench
		for try := 0; try < 3; try++ {
			r, err := s.run()
			if err != nil {
				return fmt.Errorf("bench %s: %w", s.name, err)
			}
			got := summarize(r)
			if try == 0 || got.NsPerOp < best.NsPerOp {
				best = got
			}
		}
		rep.Benchmarks[s.name] = best
		fmt.Printf("  %-28s %10.1f ns/op  %3d allocs/op  %7.3f Mops/s\n",
			s.name, rep.Benchmarks[s.name].NsPerOp, rep.Benchmarks[s.name].AllocsPerOp,
			rep.Benchmarks[s.name].MopsPerSec)
	}
	base := rep.Benchmarks["parallel_disjoint_1shard"].NsPerOp
	sharded := rep.Benchmarks["parallel_disjoint_sharded"].NsPerOp
	if sharded > 0 {
		rep.SpeedupDisjoint = base / sharded
	}

	o := harness.Options{Quick: quick, Seed: seed}
	pts := harness.Fig8aSharedLocks(o)
	rep.Fig8aMRPS = pts[len(pts)-1].AchievedMRPS
	rows := harness.Fig9SwitchVsServer(o)
	rep.Fig9SwitchMRPS = rows[0].SwitchMRPS
	rep.Fig9Server8MRPS = rows[0].ServerMRPS[len(rows[0].ServerMRPS)-1]

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (disjoint sharded/1shard speedup: %.2fx at GOMAXPROCS=%d, %d CPUs)\n",
		out, rep.SpeedupDisjoint, rep.GoMaxProcs, rep.NumCPU)
	return nil
}
