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
	"netlock/internal/fabric"
	"netlock/internal/switchdp"
	"netlock/internal/transport"
)

// runMultirack drives Zipf-skewed ordered-2PL transactions across a
// multi-rack fabric while the fabric controller re-homes the hottest
// shard between racks mid-run and then kills a rack's chain head. The
// "embedded" matrix leg runs a 2-rack fabric on a clean network; the
// "udp" leg a 4-rack fabric under the scenario chaos profile.
//
// Two oracles validate every run. The per-lock trace goes through
// internal/check as usual (no lost or doubled grants across the re-home
// and the head kill). On top of that, every grant records which rack
// issued it, and per lock the observed rack sequence must walk the
// shard's home history in order — a grant from the old home after one
// from the new home would mean the shard was live in two racks at once,
// exactly what the epoch fence forbids.
func runMultirack(cfg Config) (*Summary, error) {
	racks := 4
	if cfg.Plane != "udp" {
		racks = 2
	}
	workers := 4
	txnsPer := 40
	if cfg.Short {
		txnsPer = 12
	}
	if cfg.Plane == "udp" {
		txnsPer /= 2
	}
	const (
		pool        = 24
		locksPerTxn = 2
		shards      = 16
	)

	fcfg := fabric.Config{
		Racks:  racks,
		Shards: shards,
		Rack: ctrlplane.Config{
			Switches:  2, // head kill must be survivable on every rack
			Servers:   2,
			DataPlane: switchdp.Config{MaxLocks: 16, TotalSlots: 128, Priorities: 1},
		},
	}
	if cfg.Plane == "udp" && cfg.Chaos {
		chaos := scenarioChaos(cfg.Seed)
		fcfg.Chaos = &chaos
	}
	f, err := fabric.New(fcfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	nClients := workers
	if nClients > 4 {
		nClients = 4
	}
	clients := make([]*transport.Client, nClients)
	for i := range clients {
		c, err := f.NewClient(transport.ClientConfig{
			RetryInterval: 15 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}

	rec := newRecorder()
	lat := &latencies{}
	// rackLog captures each lock's grant-rack sequence. Exclusive grants
	// on one lock serialize (the next is only issued after the previous
	// release), and both are recorded while held, so per-lock append order
	// is the grant order.
	var rackMu sync.Mutex
	rackLog := make(map[uint32][]int)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The fabric-control goroutine fires at the halfway milestone: re-home
	// the Zipf-hottest lock's shard to the next rack, then kill that
	// destination rack's head — the move must survive its importer failing
	// over.
	m0 := f.Controller().Map()
	hotShard := m0.ShardOf(1)
	srcRack := m0.RackAt(hotShard)
	dstRack := (srcRack + 1) % racks
	var committed atomic.Int64
	half := int64(workers*txnsPer) / 2
	ctlErr := make(chan error, 1)
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for committed.Load() < half {
			select {
			case <-ctx.Done():
				ctlErr <- nil // workers report the wedge with more context
				return
			case <-time.After(time.Millisecond):
			}
		}
		if err := f.Controller().Rehome(hotShard, dstRack); err != nil {
			ctlErr <- failf(cfg.Seed, "scenario multirack: rehome shard %d: %v", hotShard, err)
			return
		}
		if err := f.Controller().FailRack(dstRack); err != nil {
			ctlErr <- failf(cfg.Seed, "scenario multirack: fail rack %d head: %v", dstRack, err)
			return
		}
		ctlErr <- nil
	}()

	start := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			zipf := rand.NewZipf(rng, 1.2, 1, pool-1)
			c := clients[w%len(clients)]
			for i := 0; i < txnsPer; i++ {
				// Zipf-skewed distinct lock set, acquired in ascending order
				// (a global order discipline keeps the workload deadlock-free
				// so every txn must commit — lost grants cannot hide behind
				// aborts).
				set := map[uint32]bool{}
				for len(set) < locksPerTxn {
					set[uint32(zipf.Uint64())+1] = true
				}
				locks := make([]uint32, 0, locksPerTxn)
				for id := range set {
					locks = append(locks, id)
				}
				sort.Slice(locks, func(a, b int) bool { return locks[a] < locks[b] })

				held := make([]*transport.Grant, 0, locksPerTxn)
				for _, id := range locks {
					s := time.Now()
					g, err := c.Acquire(ctx, id, netlock.Exclusive)
					if err != nil {
						errs[w] = failf(cfg.Seed, "scenario multirack: worker %d acquire lock %d: %v", w, id, err)
						for _, hg := range held {
							rec.released(hg.LockID(), hg.Txn(), true, 0)
							hg.Release()
						}
						return
					}
					lat.add(time.Since(s))
					rec.granted(id, g.Txn(), true, 0, 0)
					rackMu.Lock()
					rackLog[id] = append(rackLog[id], g.Rack())
					rackMu.Unlock()
					held = append(held, g)
				}
				time.Sleep(200 * time.Microsecond)
				for j := len(held) - 1; j >= 0; j-- {
					g := held[j]
					rec.released(g.LockID(), g.Txn(), true, 0)
					g.Release()
				}
				committed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-ctlDone
	if err := <-ctlErr; err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if v := rec.quiesce(); v != nil {
		return nil, failf(cfg.Seed, "scenario multirack: trace: %v", v)
	}

	hist := f.Controller().History()
	if len(hist) != 1 || hist[0].Shard != hotShard || hist[0].To != dstRack {
		return nil, failf(cfg.Seed, "scenario multirack: rehome history %+v, want shard %d -> rack %d", hist, hotShard, dstRack)
	}
	if err := checkRackSequences(m0, hist, rackLog); err != nil {
		return nil, failf(cfg.Seed, "scenario multirack: %v", err)
	}

	grants, _, releases := rec.stats()
	if want := workers * txnsPer * locksPerTxn; grants != want || releases != want {
		return nil, failf(cfg.Seed, "scenario multirack: %d grants, %d releases, want %d", grants, releases, want)
	}

	// Per-rack grant breakdown for the figure.
	perRack := make([]float64, racks)
	for _, seq := range rackLog {
		for _, rk := range seq {
			if rk >= 0 && rk < racks {
				perRack[rk]++
			}
		}
	}
	extra := map[string]float64{
		"racks":         float64(racks),
		"rehomed_shard": float64(hotShard),
		"moved_locks":   float64(hist[0].Locks),
	}
	for rk, n := range perRack {
		extra[fmt.Sprintf("rack%d_grants", rk)] = n
	}

	p50, p99 := lat.percentiles()
	return &Summary{
		Name:        "multirack",
		Plane:       cfg.Plane,
		Seed:        cfg.Seed,
		Chaos:       cfg.Chaos,
		DurationSec: elapsed.Seconds(),
		Ops:         grants,
		Throughput:  float64(grants) / elapsed.Seconds(),
		P50us:       p50,
		P99us:       p99,
		Commits:     workers * txnsPer,
		Extra:       extra,
	}, nil
}

// checkRackSequences is the no-lock-lives-in-two-racks oracle: for every
// lock, the racks that granted it must follow the shard's home history in
// order — initial home first, then each re-home destination, never back.
func checkRackSequences(m0 interface {
	ShardOf(uint32) uint32
	RackAt(uint32) int
}, hist []fabric.Rehome, rackLog map[uint32][]int) error {
	for lock, seq := range rackLog {
		shard := m0.ShardOf(lock)
		homes := []int{m0.RackAt(shard)}
		for _, mv := range hist {
			if mv.Shard == shard {
				homes = append(homes, mv.To)
			}
		}
		idx := 0
		for _, rk := range seq {
			for idx < len(homes) && homes[idx] != rk {
				idx++
			}
			if idx == len(homes) {
				return fmt.Errorf("lock %d granted by rack %d outside its home history %v (grant racks %v)", lock, rk, homes, seq)
			}
		}
	}
	return nil
}
