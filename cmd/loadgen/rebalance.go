// The rebalance bench measures what the online lock-placement rebalancer is
// for: a capacity-limited switch whose hot set drifts mid-run. Both legs run
// the same Zipf-skewed closed loop over a lock space four times larger than
// the switch, and rotate the hot set to a disjoint pool at the halfway mark.
//
//   - static: the phase-0 hot set is preinstalled switch-resident (the best
//     placement a one-shot allocator can pick) and never moves. After the
//     rotation every hot acquire detours through a lock server.
//   - rebalanced: nothing is preinstalled; the rebalance loop earns every
//     residency from live demand and re-promotes the new hot set after the
//     rotation.
//
// The headline number is TailGain: rebalanced tail-window throughput over
// static, i.e. how much of the switch's fast path the loop wins back once
// the static placement has gone stale.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netlock/internal/ctrlplane"
	"netlock/internal/obs"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// rebalanceReport is the BENCH_rebalance.json document.
type rebalanceReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_maxprocs"`

	DurationS      float64 `json:"duration_s"`
	Workers        int     `json:"workers"`
	Locks          int     `json:"locks"`
	HotLocks       int     `json:"hot_locks"`
	SwitchCapacity int     `json:"switch_capacity_locks"`
	RotateAtS      float64 `json:"rotate_at_s"`
	RebalanceMs    float64 `json:"rebalance_interval_ms"`

	Static     driftResult `json:"static_placement"`
	Rebalanced driftResult `json:"rebalanced"`

	// TailGain is rebalanced tail-window MRPS over static: the fast path
	// recovered by moving the new hot set back into the switch.
	TailGain float64 `json:"tail_gain_rebalanced_over_static"`
}

// driftResult is one leg, sampled in fixed buckets around the rotation.
type driftResult struct {
	result
	BucketMs       float64 `json:"bucket_ms"`
	PreRotateMRPS  float64 `json:"pre_rotate_mrps"`
	PostRotateMRPS float64 `json:"post_rotate_mrps"`
	// TailMRPS is the mean over the last quarter of the run: the steady
	// state after the placement (static or re-learned) has settled.
	TailMRPS     float64 `json:"tail_mrps"`
	Promotes     uint64  `json:"promotes"`
	Demotions    uint64  `json:"demotions"`
	MoveFailures uint64  `json:"move_failures"`
}

// runRebalanceBench measures the static and rebalanced legs on fresh racks
// and writes the comparison as JSON.
func runRebalanceBench(cfg loadConfig, path string, quick bool) error {
	cfg.switchAddr = "" // the bench owns the rack: placement is the variable
	cfg.rate = 0
	cfg.duration = 10 * time.Second
	if quick {
		cfg.duration = 4 * time.Second
	}
	if cfg.rebalanceEvery == 0 {
		cfg.rebalanceEvery = 25 * time.Millisecond
	}
	if cfg.rebalanceBudget == 0 {
		cfg.rebalanceBudget = 8
	}
	hotN := cfg.locks / 4
	if hotN < 4 {
		hotN = 4
	}
	if cfg.locks < 2*hotN {
		cfg.locks = 2 * hotN // two disjoint hot pools must fit the ID space
	}

	rep := rebalanceReport{
		Generated:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		DurationS:      cfg.duration.Seconds(),
		Workers:        cfg.workers,
		Locks:          cfg.locks,
		HotLocks:       hotN,
		SwitchCapacity: hotN,
		RotateAtS:      (cfg.duration / 2).Seconds(),
		RebalanceMs:    float64(cfg.rebalanceEvery) / 1e6,
	}

	fmt.Fprintf(os.Stderr, "loadgen: measuring static placement with hot-set rotation at %v (%v)...\n",
		cfg.duration/2, cfg.duration)
	static, err := runDriftLeg(cfg, hotN, false)
	if err != nil {
		return fmt.Errorf("static leg: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: static: %s tail=%.3f Mops/s\n", static.result, static.TailMRPS)
	rep.Static = static

	fmt.Fprintf(os.Stderr, "loadgen: measuring rebalanced (loop every %v, budget %d)...\n",
		cfg.rebalanceEvery, cfg.rebalanceBudget)
	reb, err := runDriftLeg(cfg, hotN, true)
	if err != nil {
		return fmt.Errorf("rebalanced leg: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: rebalanced: %s tail=%.3f Mops/s (%d promotes, %d demotes, %d failed moves)\n",
		reb.result, reb.TailMRPS, reb.Promotes, reb.Demotions, reb.MoveFailures)
	rep.Rebalanced = reb
	if static.TailMRPS > 0 {
		rep.TailGain = reb.TailMRPS / static.TailMRPS
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
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s (tail gain %.2fx)\n", path, rep.TailGain)
	return nil
}

// runDriftLeg runs the Zipf closed loop on a switch sized for hotN locks,
// rotating the hot set to the disjoint pool at the halfway mark. With
// rebalanced set, the online loop manages placement; otherwise the phase-0
// hot set is preinstalled and placement is frozen.
func runDriftLeg(cfg loadConfig, hotN int, rebalanced bool) (driftResult, error) {
	var locks []ctrlplane.SwitchLock
	if !rebalanced {
		for id := 1; id <= hotN; id++ {
			locks = append(locks, ctrlplane.SwitchLock{ID: uint32(id), Slots: int(cfg.slotsPerLock)})
		}
	}
	tp, err := ctrlplane.New(ctrlplane.Config{
		Switches: cfg.chain,
		Servers:  cfg.servers,
		DataPlane: switchdp.Config{
			MaxLocks:   nextPow2(hotN + 1),
			TotalSlots: int(cfg.slotsPerLock) * (hotN + 1),
			Priorities: 1,
		},
		SwitchLocks: locks,
	})
	if err != nil {
		return driftResult{}, err
	}
	defer tp.Close()

	var loop *rebalance.Loop
	if rebalanced {
		// Default sizing: the planner's slot headroom keeps admission margin
		// above measured peak concurrency, so no per-benchmark slot floor is
		// needed to stop saturated hot locks detouring through the server
		// overflow path.
		loop = rebalance.New(tp.Controller(), rebalance.Config{
			Interval: cfg.rebalanceEvery,
			Budget:   cfg.rebalanceBudget,
		})
		loop.Start()
		defer loop.Stop()
	}

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
			// Acquires caught mid-move are answered with a redirect or not at
			// all; a tight retransmit keeps a move from stranding a worker
			// for the default (second-scale) retry.
			RetryInterval: 20 * time.Millisecond,
			Obs:           reg.Stripe(1 + i),
		})
		if err != nil {
			return driftResult{}, fmt.Errorf("client %d: %w", i, err)
		}
		clients = append(clients, c)
	}

	var done, errs atomic.Uint64
	var phase atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

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

	rotateAt := cfg.duration / 2
	rotBucket := int(rotateAt / bucket)
	timer := time.AfterFunc(rotateAt, func() { phase.Store(1) })
	defer timer.Stop()

	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(c *transport.Client, seed int64) {
				defer wg.Done()
				hotLoop(ctx, c, cfg, hotN, &phase, o, &done, &errs, seed)
			}(c, int64(ci*cfg.workers+w))
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	close(stop)
	sampler.Wait()

	sn := reg.Snapshot()
	e2e := sn.Stage(obs.StageAcquireE2E)
	batchHist := sn.Stage(obs.StageEgressBatch)
	res := driftResult{
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
		BucketMs: bucket.Seconds() * 1e3,
	}
	if loop != nil {
		st := loop.Stats()
		res.Promotes, res.Demotions, res.MoveFailures = st.Promotions, st.Demotions, st.Failures
	}
	if res.Ops == 0 {
		return res, fmt.Errorf("no operations completed (%d errors)", res.Errors)
	}
	if rotBucket < 2 || rotBucket >= len(buckets) {
		return res, fmt.Errorf("run too short for rotation at bucket %d of %d", rotBucket, len(buckets))
	}
	mean := func(bs []uint64) float64 {
		var sum uint64
		for _, b := range bs {
			sum += b
		}
		return float64(sum) / float64(len(bs)) / bucket.Seconds() / 1e6
	}
	// Skip the first bucket (warmup) for the pre-rotation mean.
	res.PreRotateMRPS = mean(buckets[1:rotBucket])
	res.PostRotateMRPS = mean(buckets[rotBucket:])
	tail := buckets[len(buckets)-(len(buckets)-rotBucket)/2:]
	res.TailMRPS = mean(tail)
	return res, nil
}

// hotLoop is closedLoop with a rotating Zipf hot set: each acquire draws
// from the current phase's disjoint pool of hotN locks, skewed toward its
// head, so residency demand concentrates and then drifts all at once.
func hotLoop(ctx context.Context, c *transport.Client, cfg loadConfig, hotN int, phase *atomic.Int32, o *obs.Stripe, done, errs *atomic.Uint64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(hotN-1))
	for ctx.Err() == nil {
		base := uint32(1)
		if phase.Load() > 0 {
			base = uint32(hotN + 1)
		}
		lock := base + uint32(zipf.Uint64())
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
