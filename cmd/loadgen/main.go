// Command loadgen drives a NetLock rack with acquire/release load through
// the batched, multiplexed UDP transport and reports throughput and
// end-to-end acquire latency live.
//
// By default it self-hosts a rack in-process (one switch, -servers lock
// servers, locks 1..-locks switch-resident) and runs a closed loop of
// -clients x -workers workers, each holding one acquire in flight:
//
//	loadgen -duration 10s -workers 128 -locks 64
//
// Point it at an external rack (cmd/netlockd) with -switch, or switch to an
// open loop with -rate, which submits at a fixed aggregate ops/sec
// independent of completions:
//
//	loadgen -switch 127.0.0.1:9000 -rate 500000 -duration 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/fabric"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.switchAddr, "switch", "", "external switch address(es), comma-separated chain members head first (empty: self-host a rack in-process)")
	flag.IntVar(&cfg.servers, "servers", 2, "self-hosted rack: number of lock servers")
	flag.IntVar(&cfg.chain, "chain", 1, "self-hosted rack: switch replication chain length (1-3)")
	flag.IntVar(&cfg.locks, "locks", 64, "lock ID space; self-hosted racks preinstall them in the switch")
	flag.Uint64Var(&cfg.slotsPerLock, "slots-per-lock", 64, "self-hosted rack: queue slots per preinstalled lock")
	flag.IntVar(&cfg.clients, "clients", 1, "client sockets; workers are spread across them")
	flag.IntVar(&cfg.workers, "workers", 128, "closed-loop workers (in-flight acquires) per client")
	flag.StringVar(&cfg.mode, "mode", "shared", "lock mode: shared, exclusive, or mixed (50/50)")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop aggregate ops/sec (0: closed loop)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement duration")
	flag.DurationVar(&cfg.rebalanceEvery, "rebalance", 0, "self-hosted rack: tick the online lock-placement rebalancer at this interval (0 disables; disables preinstall so residency is earned)")
	flag.IntVar(&cfg.rebalanceBudget, "rebalance-budget", 0, "max live migrations per rebalance tick (0: rebalance default)")
	report := flag.Duration("report", time.Second, "live readout interval (0 disables)")
	rebalanceBench := flag.Bool("rebalance-bench", false, "measure hot-set drift with static placement vs the online rebalancer and emit a JSON report")
	multirackBench := flag.Bool("multirack-bench", false, "measure a 1-rack vs -racks fabric on the same workload and emit a JSON report")
	flag.IntVar(&cfg.racks, "racks", 1, "self-host a multi-rack fabric with this many racks (1: plain single rack; -multirack-bench defaults to 4)")
	flag.IntVar(&cfg.shards, "shards", 64, "fabric shard-map granularity (with -racks > 1)")
	out := flag.String("out", "", "JSON output path for -workload/-failover/-rebalance-bench/-multirack-bench ('-' for stdout)")
	quick := flag.Bool("quick", false, "shorter -failover/-rebalance-bench/-multirack-bench run")
	failover := flag.Bool("failover", false, "measure head-failure recovery on a 3-member chain vs a single-switch baseline and emit a JSON report")
	workload := flag.String("workload", "", "run a named adversarial scenario from internal/scenario ('all' for the full suite); skips the load loop")
	plane := flag.String("plane", "both", "scenario plane: embedded, udp, or both")
	seed := flag.Int64("seed", 1, "scenario seed (replays a failing run)")
	short := flag.Bool("short", false, "CI-sized scenario configuration")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *workload != "" {
		path := *out
		if path == "" {
			path = "BENCH_scenarios.json"
		}
		if err := runScenarios(*workload, *plane, *seed, *short, path); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *failover {
		path := *out
		if path == "" {
			path = "BENCH_failover.json"
		}
		if err := runFailover(cfg, path, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *multirackBench {
		path := *out
		if path == "" {
			path = "BENCH_multirack.json"
		}
		if err := runMultirackBench(cfg, path, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *rebalanceBench {
		path := *out
		if path == "" {
			path = "BENCH_rebalance.json"
		}
		if err := runRebalanceBench(cfg, path, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	res, err := runLoad(cfg, *report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loadgen: %s\n", res)
}

type loadConfig struct {
	switchAddr      string
	chain           int
	servers         int
	racks           int
	shards          int
	locks           int
	slotsPerLock    uint64
	clients         int
	workers         int
	mode            string
	rate            float64
	duration        time.Duration
	rebalanceEvery  time.Duration
	rebalanceBudget int
}

// result is one measured run.
type result struct {
	Ops       uint64  `json:"ops"`
	Errors    uint64  `json:"errors"`
	Seconds   float64 `json:"seconds"`
	MRPS      float64 `json:"mrps"`
	P50Us     float64 `json:"acquire_p50_us"`
	P99Us     float64 `json:"acquire_p99_us"`
	FramesOut uint64  `json:"client_frames_out"`
	AvgBatch  float64 `json:"client_avg_batch_ops"`
}

func (r result) String() string {
	return fmt.Sprintf("%.3f Mops/s (%d ops, %d errs, %.1fs) p50=%.0fus p99=%.0fus avg batch %.1f ops/frame",
		r.MRPS, r.Ops, r.Errors, r.Seconds, r.P50Us, r.P99Us, r.AvgBatch)
}

// selfHost brings up an in-process rack through the Topology API: a
// cfg.chain-member switch chain over real loopback UDP, cfg.servers lock
// servers, and locks 1..cfg.locks preinstalled switch-resident. With the
// rebalancer enabled nothing is preinstalled: every residency is earned
// through a live migration planned by the loop.
func selfHost(cfg loadConfig) (*ctrlplane.Topology, error) {
	var locks []ctrlplane.SwitchLock
	if cfg.rebalanceEvery == 0 {
		locks = make([]ctrlplane.SwitchLock, 0, cfg.locks)
		for id := 1; id <= cfg.locks; id++ {
			locks = append(locks, ctrlplane.SwitchLock{ID: uint32(id), Slots: int(cfg.slotsPerLock)})
		}
	}
	return ctrlplane.New(ctrlplane.Config{
		Switches: cfg.chain,
		Servers:  cfg.servers,
		DataPlane: switchdp.Config{
			MaxLocks:   nextPow2(cfg.locks + 1),
			TotalSlots: int(cfg.slotsPerLock) * (cfg.locks + 1),
			Priorities: 1,
		},
		SwitchLocks: locks,
	})
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// runLoad executes one measured run against cfg's rack (self-hosted when
// switchAddr is empty; a fabric of cfg.racks racks when racks > 1) and
// returns the aggregate result.
func runLoad(cfg loadConfig, report time.Duration) (result, error) {
	var tp *ctrlplane.Topology
	var fab *fabric.Fabric
	if cfg.switchAddr == "" && cfg.racks > 1 {
		var err error
		fab, _, err = selfHostFabric(cfg, cfg.racks, cfg.shards)
		if err != nil {
			return result{}, err
		}
		defer fab.Close()
	} else if cfg.switchAddr == "" {
		var err error
		tp, err = selfHost(cfg)
		if err != nil {
			return result{}, err
		}
		defer tp.Close()
		if cfg.rebalanceEvery > 0 {
			loop := rebalance.New(tp.Controller(), rebalance.Config{
				Interval: cfg.rebalanceEvery,
				Budget:   cfg.rebalanceBudget,
			})
			loop.Start()
			defer loop.Stop()
		}
	}

	// One stripe per client socket for egress frame/batch counters; the
	// loadgen-side acquire latency histogram lives in stripe 0.
	reg := obs.New(obs.Config{Stripes: 1 + cfg.clients})
	o := reg.Stripe(0)

	var clients []*transport.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < cfg.clients; i++ {
		ccfg := transport.ClientConfig{
			Obs: reg.Stripe(1 + i),
		}
		var c *transport.Client
		var err error
		if fab != nil {
			c, err = fab.NewClient(ccfg)
		} else if tp != nil {
			c, err = tp.NewClient(ccfg)
		} else {
			// External rack: -switch lists the chain members head first.
			ccfg.Switches = strings.Split(cfg.switchAddr, ",")
			c, err = transport.NewClientConfig(ccfg)
		}
		if err != nil {
			return result{}, fmt.Errorf("client %d: %w", i, err)
		}
		clients = append(clients, c)
	}

	var done, errs atomic.Uint64
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	stop := make(chan struct{})
	if report > 0 {
		go readout(reg, &done, report, stop)
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.rate > 0 {
		for i, c := range clients {
			wg.Add(1)
			go func(c *transport.Client, seed int64) {
				defer wg.Done()
				openLoop(ctx, c, cfg, cfg.rate/float64(len(clients)), o, &done, &errs, seed)
			}(c, int64(i))
		}
	} else {
		for ci, c := range clients {
			for w := 0; w < cfg.workers; w++ {
				wg.Add(1)
				go func(c *transport.Client, seed int64) {
					defer wg.Done()
					closedLoop(ctx, c, cfg, o, &done, &errs, seed)
				}(c, int64(ci*cfg.workers+w))
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(stop)

	sn := reg.Snapshot()
	e2e := sn.Stage(obs.StageAcquireE2E)
	batchHist := sn.Stage(obs.StageEgressBatch)
	res := result{
		Ops:       done.Load(),
		Errors:    errs.Load(),
		Seconds:   elapsed,
		MRPS:      float64(done.Load()) / elapsed / 1e6,
		P50Us:     float64(e2e.Percentile(50)) / 1e3,
		P99Us:     float64(e2e.Percentile(99)) / 1e3,
		FramesOut: sn.Counter(obs.CtrFramesOut),
		AvgBatch:  batchHist.Mean(),
	}
	if res.Ops == 0 {
		return res, fmt.Errorf("no operations completed (%d errors)", res.Errors)
	}
	return res, nil
}

// pickMode resolves the per-op lock mode for worker rng.
func pickMode(mode string, rng *rand.Rand) netlock.Mode {
	switch mode {
	case "exclusive":
		return netlock.Exclusive
	case "mixed":
		if rng.Intn(2) == 0 {
			return netlock.Exclusive
		}
		return netlock.Shared
	default:
		return netlock.Shared
	}
}

// closedLoop keeps exactly one acquire in flight: acquire, record, release,
// repeat until ctx expires.
func closedLoop(ctx context.Context, c *transport.Client, cfg loadConfig, o *obs.Stripe, done, errs *atomic.Uint64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		lock := uint32(rng.Intn(cfg.locks)) + 1
		start := time.Now()
		g, err := c.Acquire(ctx, lock, pickMode(cfg.mode, rng))
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			errs.Add(1)
			continue
		}
		o.Observe(obs.StageAcquireE2E, time.Since(start).Nanoseconds())
		done.Add(1)
		g.Release()
	}
}

// openLoop submits acquires at a fixed rate regardless of completions,
// releasing each grant from its completion callback. Submission happens in
// 1ms slices so high rates do not need a per-op timer; when the transport
// cannot keep up, the loop sheds load beyond maxInflight and counts the
// shed ops as errors (an open-loop generator must not silently turn into a
// closed loop by blocking).
func openLoop(ctx context.Context, c *transport.Client, cfg loadConfig, rate float64, o *obs.Stripe, done, errs *atomic.Uint64, seed int64) {
	const maxInflight = 65536
	var inflight atomic.Int64
	rng := rand.New(rand.NewSource(seed))
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	started := time.Now()
	submitted := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		// Pace against wall clock, not tick count: the ticker drops ticks
		// under load, and a tick-counting pacer would silently undershoot.
		n := int(rate*time.Since(started).Seconds()) - submitted
		submitted += n
		for i := 0; i < n; i++ {
			if inflight.Load() >= maxInflight {
				errs.Add(1)
				continue
			}
			lock := uint32(rng.Intn(cfg.locks)) + 1
			start := time.Now()
			inflight.Add(1)
			err := c.AcquireFunc(ctx, lock, pickMode(cfg.mode, rng), func(g *transport.Grant, err error) {
				inflight.Add(-1)
				if err != nil {
					if ctx.Err() == nil {
						errs.Add(1)
					}
					return
				}
				o.Observe(obs.StageAcquireE2E, time.Since(start).Nanoseconds())
				done.Add(1)
				g.Release()
			})
			if err != nil {
				inflight.Add(-1)
				if ctx.Err() != nil {
					return
				}
				errs.Add(1)
			}
		}
	}
}

// readout prints one live line per interval: instantaneous throughput plus
// cumulative latency percentiles, egress batch factor and the clients'
// frame-open time (flush wait).
func readout(reg *obs.Registry, done *atomic.Uint64, every time.Duration, stop chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	last := uint64(0)
	started := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		cur := done.Load()
		sn := reg.Snapshot()
		e2e := sn.Stage(obs.StageAcquireE2E)
		fw := sn.Stage(obs.StageClientFlushWait)
		fmt.Printf("t=%4.0fs %8.3f Mops/s  total=%d  p50=%.0fus p99=%.0fus  batch=%.1f ops/frame  flush wait p50=%.1fus p99=%.1fus\n",
			time.Since(started).Seconds(),
			float64(cur-last)/every.Seconds()/1e6,
			cur,
			float64(e2e.Percentile(50))/1e3,
			float64(e2e.Percentile(99))/1e3,
			sn.Stage(obs.StageEgressBatch).Mean(),
			float64(fw.Percentile(50))/1e3,
			float64(fw.Percentile(99))/1e3)
		last = cur
	}
}

// failoverReport is the BENCH_failover.json document: the same closed-loop
// workload on an unreplicated switch (baseline) and on a 3-member chain
// whose head is killed mid-run.
type failoverReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_maxprocs"`

	DurationS float64 `json:"duration_s"`
	Workers   int     `json:"workers"`
	Locks     int     `json:"locks"`
	Mode      string  `json:"mode"`

	Baseline result         `json:"baseline_single_switch"`
	Chain3   failoverResult `json:"failover_chain3"`

	// ChainOverhead is chain-3 steady-state (pre-kill) MRPS over the
	// single-switch baseline — the replication tax.
	ChainOverhead float64 `json:"chain3_pre_kill_over_baseline"`
}

// failoverResult is one chain run with a mid-run head kill, sampled in
// fixed buckets so the dip and recovery are visible.
type failoverResult struct {
	result
	KillAtS      float64 `json:"kill_at_s"`
	BucketMs     float64 `json:"bucket_ms"`
	PreKillMRPS  float64 `json:"pre_kill_mrps"`
	PostKillMRPS float64 `json:"post_kill_mrps"`
	// DipFrac is the worst post-kill bucket over the pre-kill mean (0 = a
	// full stall, 1 = no visible dip).
	DipFrac float64 `json:"throughput_dip_frac"`
	// RecoveryMs is the time from the kill until the first bucket back at
	// >= 80% of the pre-kill mean; -1 if the run never recovered.
	RecoveryMs float64 `json:"recovery_ms"`
	EpochAfter uint64  `json:"epoch_after"`
}

// runFailover measures the baseline and the head-kill chain run on fresh
// self-hosted racks and writes the comparison as JSON.
func runFailover(cfg loadConfig, path string, quick bool) error {
	cfg.switchAddr = "" // failover is a self-hosted controller experiment
	cfg.rate = 0
	cfg.rebalanceEvery = 0 // both legs run the static preinstalled placement
	cfg.duration = 10 * time.Second
	if quick {
		cfg.duration = 4 * time.Second
	}

	rep := failoverReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationS:  cfg.duration.Seconds(),
		Workers:    cfg.workers,
		Locks:      cfg.locks,
		Mode:       cfg.mode,
	}

	base := cfg
	base.chain = 1
	fmt.Fprintf(os.Stderr, "loadgen: measuring single-switch baseline (%v)...\n", base.duration)
	baseline, err := runLoad(base, 0)
	if err != nil {
		return fmt.Errorf("baseline leg: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: baseline: %s\n", baseline)
	rep.Baseline = baseline

	fo := cfg
	fo.chain = 3
	fmt.Fprintf(os.Stderr, "loadgen: measuring 3-chain with head kill at %v...\n", fo.duration/2)
	foRes, err := runFailoverLeg(fo)
	if err != nil {
		return fmt.Errorf("failover leg: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: chain3: %s kill@%.1fs dip=%.2f recovery=%.0fms\n",
		foRes.result, foRes.KillAtS, foRes.DipFrac, foRes.RecoveryMs)
	rep.Chain3 = foRes
	if baseline.MRPS > 0 {
		rep.ChainOverhead = foRes.PreKillMRPS / baseline.MRPS
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", path)
	return nil
}

// runFailoverLeg runs the closed-loop workload on a cfg.chain rack, kills
// the chain head at the halfway mark, and reports per-bucket throughput
// around the kill.
func runFailoverLeg(cfg loadConfig) (failoverResult, error) {
	tp, err := selfHost(cfg)
	if err != nil {
		return failoverResult{}, err
	}
	defer tp.Close()

	reg := obs.New(obs.Config{Stripes: 1 + cfg.clients})
	o := reg.Stripe(0)
	var clients []*transport.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < cfg.clients; i++ {
		c, err := tp.NewClient(transport.ClientConfig{
			RetryInterval: 20 * time.Millisecond,
			Obs:           reg.Stripe(1 + i),
		})
		if err != nil {
			return failoverResult{}, fmt.Errorf("client %d: %w", i, err)
		}
		clients = append(clients, c)
	}

	var done, errs atomic.Uint64
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	// Sample completed ops in fixed buckets so the kill's dip is visible.
	const bucket = 50 * time.Millisecond
	var buckets []uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(bucket)
		defer t.Stop()
		last := uint64(0)
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				cur := done.Load()
				buckets = append(buckets, cur-last)
				last = cur
			}
		}
	}()

	killAt := cfg.duration / 2
	killBucket := int(killAt / bucket)
	killErr := make(chan error, 1)
	timer := time.AfterFunc(killAt, func() { killErr <- tp.Controller().FailHead() })
	defer timer.Stop()

	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(c *transport.Client, seed int64) {
				defer wg.Done()
				closedLoop(ctx, c, cfg, o, &done, &errs, seed)
			}(c, int64(ci*cfg.workers+w))
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(stop)
	sampler.Wait()
	if err := <-killErr; err != nil {
		return failoverResult{}, fmt.Errorf("kill head: %w", err)
	}

	sn := reg.Snapshot()
	e2e := sn.Stage(obs.StageAcquireE2E)
	batchHist := sn.Stage(obs.StageEgressBatch)
	res := failoverResult{
		result: result{
			Ops:       done.Load(),
			Errors:    errs.Load(),
			Seconds:   elapsed,
			MRPS:      float64(done.Load()) / elapsed / 1e6,
			P50Us:     float64(e2e.Percentile(50)) / 1e3,
			P99Us:     float64(e2e.Percentile(99)) / 1e3,
			FramesOut: sn.Counter(obs.CtrFramesOut),
			AvgBatch:  batchHist.Mean(),
		},
		KillAtS:    killAt.Seconds(),
		BucketMs:   bucket.Seconds() * 1e3,
		EpochAfter: tp.Controller().Epoch(),
		RecoveryMs: -1,
	}
	if res.Ops == 0 {
		return res, fmt.Errorf("no operations completed (%d errors)", res.Errors)
	}
	if killBucket < 1 || killBucket >= len(buckets) {
		return res, fmt.Errorf("run too short for kill at bucket %d of %d", killBucket, len(buckets))
	}
	// Skip the first bucket (warmup) for the pre-kill mean.
	pre := buckets[1:killBucket]
	var preSum uint64
	for _, b := range pre {
		preSum += b
	}
	preMean := float64(preSum) / float64(len(pre))
	res.PreKillMRPS = preMean / bucket.Seconds() / 1e6

	post := buckets[killBucket:]
	minPost := post[0]
	var postSum uint64
	for i, b := range post {
		postSum += b
		if b < minPost {
			minPost = b
		}
		if res.RecoveryMs < 0 && preMean > 0 && float64(b) >= 0.8*preMean {
			res.RecoveryMs = float64(i+1) * bucket.Seconds() * 1e3
		}
	}
	res.PostKillMRPS = float64(postSum) / float64(len(post)) / bucket.Seconds() / 1e6
	if preMean > 0 {
		res.DipFrac = float64(minPost) / preMean
	}
	return res, nil
}
