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
	"netlock/internal/fabric"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// multirackReport is the BENCH_multirack.json document: the same
// closed-loop workload on a 1-rack fabric (baseline) and an N-rack fabric,
// both over real loopback UDP, with the per-rack grant breakdown from the
// client's shard-map routing. The scaling figure is the aggregate
// throughput win of sharding the lock space across independent racks.
type multirackReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_maxprocs"`

	DurationS float64 `json:"duration_s"`
	Racks     int     `json:"racks"`
	Shards    int     `json:"shards"`
	Chain     int     `json:"chain"`
	Workers   int     `json:"workers"`
	Locks     int     `json:"locks"`
	Mode      string  `json:"mode"`

	SingleRack fabricResult `json:"single_rack"`
	MultiRack  fabricResult `json:"multi_rack"`

	// Scaling is multi-rack aggregate MRPS over the single-rack fabric on
	// the same total offered load — the fan-out win of per-key sharding.
	Scaling float64 `json:"multirack_over_single"`
}

// fabricResult is one measured fabric run. PerRackOps indexes grants by
// the rack that issued them (from Grant.Rack), so the breakdown shows how
// evenly the shard map spread the key space.
type fabricResult struct {
	result
	Racks int `json:"racks"`
	// SwitchResident is how many of the workload's locks fit the racks'
	// fixed per-switch slot budgets; the rest take the server slow path.
	SwitchResident int      `json:"switch_resident_locks"`
	PerRackOps     []uint64 `json:"per_rack_ops"`
	MapEpoch       uint64   `json:"map_epoch"`
}

// runMultirackBench measures the closed-loop workload on a 1-rack and an
// n-rack fabric and writes the comparison as JSON.
func runMultirackBench(cfg loadConfig, path string, quick bool) error {
	racks, shards := cfg.racks, cfg.shards
	if racks < 2 {
		racks = 4
	}
	cfg.switchAddr = "" // fabric legs self-host their racks
	cfg.rate = 0
	cfg.duration = 5 * time.Second
	if quick {
		cfg.duration = 2 * time.Second
	}

	rep := multirackReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		DurationS:  cfg.duration.Seconds(),
		Racks:      racks,
		Shards:     shards,
		Chain:      cfg.chain,
		Workers:    cfg.clients * cfg.workers,
		Locks:      cfg.locks,
		Mode:       cfg.mode,
	}

	fmt.Fprintf(os.Stderr, "loadgen: measuring 1-rack fabric baseline (%v)...\n", cfg.duration)
	single, err := runFabricLeg(cfg, 1, shards)
	if err != nil {
		return fmt.Errorf("single-rack leg: %w", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: 1 rack:  %s\n", single.result)
	rep.SingleRack = single

	fmt.Fprintf(os.Stderr, "loadgen: measuring %d-rack fabric (%v)...\n", racks, cfg.duration)
	multi, err := runFabricLeg(cfg, racks, shards)
	if err != nil {
		return fmt.Errorf("%d-rack leg: %w", racks, err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d racks: %s racks=%v\n", racks, multi.result, multi.PerRackOps)
	rep.MultiRack = multi
	if single.MRPS > 0 {
		rep.Scaling = multi.MRPS / single.MRPS
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
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s (%d racks %.2fx one rack)\n", path, racks, rep.Scaling)
	return nil
}

// switchSlotBudget is the fixed per-switch shared-queue capacity the
// self-hosted fabric models: a switch's SRAM does not grow because the
// fabric has fewer racks, so every leg gets the same per-switch budget
// and what scales with racks is the AGGREGATE switch memory. Locks that
// do not fit a rack's budget stay server-resident and take the slow path
// through a lock server — the paper's memory-size/throughput trade,
// where adding racks raises the fast-path fraction.
const switchSlotBudget = 16384

// selfHostFabric brings up an in-process racks-rack fabric over real
// loopback UDP with locks 1..cfg.locks preinstalled switch-resident on
// their map-assigned home racks until each rack's fixed slot budget is
// exhausted (mirroring cmd/netlockd -fabric). It returns the fabric and
// the count of locks that went switch-resident.
func selfHostFabric(cfg loadConfig, racks, shards int) (*fabric.Fabric, int, error) {
	maxResident := switchSlotBudget / int(cfg.slotsPerLock)
	f, err := fabric.New(fabric.Config{
		Racks:  racks,
		Shards: shards,
		Rack: ctrlplane.Config{
			Switches: cfg.chain,
			Servers:  cfg.servers,
			DataPlane: switchdp.Config{
				MaxLocks:   nextPow2(maxResident + 1),
				TotalSlots: switchSlotBudget,
				Priorities: 1,
			},
		},
	})
	if err != nil {
		return nil, 0, err
	}
	m := f.Controller().Map()
	resident := 0
	for id := uint32(1); id <= uint32(cfg.locks); id++ {
		if err := f.Rack(m.RackOf(id)).Controller().InstallLock(id, cfg.slotsPerLock); err != nil {
			continue // rack's slots or lock table exhausted: stays server-resident
		}
		resident++
	}
	return f, resident, nil
}

// runFabricLeg runs the closed-loop workload against a fresh racks-rack
// fabric.
func runFabricLeg(cfg loadConfig, racks, shards int) (fabricResult, error) {
	f, resident, err := selfHostFabric(cfg, racks, shards)
	if err != nil {
		return fabricResult{}, err
	}
	defer f.Close()

	reg := obs.New(obs.Config{Stripes: 1 + cfg.clients})
	o := reg.Stripe(0)
	var clients []*transport.Client
	for i := 0; i < cfg.clients; i++ {
		c, err := f.NewClient(transport.ClientConfig{
			Obs: reg.Stripe(1 + i),
		})
		if err != nil {
			return fabricResult{}, fmt.Errorf("client %d: %w", i, err)
		}
		clients = append(clients, c)
	}

	var done, errs atomic.Uint64
	rackOps := make([]atomic.Uint64, racks)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(c *transport.Client, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for ctx.Err() == nil {
					lock := uint32(rng.Intn(cfg.locks)) + 1
					s := time.Now()
					g, err := c.Acquire(ctx, lock, pickMode(cfg.mode, rng))
					if err != nil {
						if ctx.Err() != nil {
							return
						}
						errs.Add(1)
						continue
					}
					o.Observe(obs.StageAcquireE2E, time.Since(s).Nanoseconds())
					done.Add(1)
					if rk := g.Rack(); rk >= 0 && rk < racks {
						rackOps[rk].Add(1)
					}
					g.Release()
				}
			}(c, int64(ci*cfg.workers+w))
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sn := reg.Snapshot()
	e2e := sn.Stage(obs.StageAcquireE2E)
	res := fabricResult{
		result: result{
			Ops:       done.Load(),
			Errors:    errs.Load(),
			Seconds:   elapsed,
			MRPS:      float64(done.Load()) / elapsed / 1e6,
			P50Us:     float64(e2e.Percentile(50)) / 1e3,
			P99Us:     float64(e2e.Percentile(99)) / 1e3,
			FramesOut: sn.Counter(obs.CtrFramesOut),
			AvgBatch:  sn.Stage(obs.StageEgressBatch).Mean(),
		},
		Racks:          racks,
		SwitchResident: resident,
		MapEpoch:       f.Controller().Epoch(),
	}
	for i := range rackOps {
		res.PerRackOps = append(res.PerRackOps, rackOps[i].Load())
	}
	if res.Ops == 0 {
		return res, fmt.Errorf("no operations completed (%d errors)", res.Errors)
	}
	return res, nil
}
