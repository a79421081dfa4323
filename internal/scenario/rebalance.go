package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/lockserver"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
)

// The rebalance scenario runs the online lock-placement rebalancer against
// its worst customer: Zipf-skewed ordered-acquire 2PL traffic whose hot set
// rotates mid-run, while the control plane drains a lock server and a rack
// node is killed — all live. Nothing is pre-installed: every switch
// residency is earned through a live migration planned by the loop.
//
//   - embedded plane: the sharded Manager's built-in rebalance loop
//     (Config.RebalanceInterval) moves locks between the data-plane model
//     and the in-process servers; server 0 is drained at one quarter of the
//     run and killed at three quarters (lossless by then — the drain left
//     it empty).
//   - udp plane: the same internal/rebalance loop drives
//     ctrlplane.Controller's epoch-fenced chain migrations over a 3-member
//     replicated switch chain under seeded client-edge chaos; server 0 is
//     drained at one quarter and the chain head is killed at three
//     quarters, so moves race both the drain and the epoch change.
//
// Safety is checked at two levels. The per-lock trace (internal/check)
// proves zero lost and zero doubled grants end to end. On top of that a
// per-move oracle consumes every move report: no transaction may cross the
// residency boundary twice in one move, and the waiters a move carried must
// be granted afterwards — all of them, in the exact (lock, mode) FIFO order
// the report recorded at the boundary.
type rebalanceParams struct {
	workers     int
	txnsPer     int
	poolSize    int // locks per hot-set phase
	locksPerTxn int
	think       time.Duration
	timeout     time.Duration
}

func rebalanceSizes(cfg Config) rebalanceParams {
	p := rebalanceParams{
		workers:     4,
		txnsPer:     24,
		poolSize:    6,
		locksPerTxn: 2,
		think:       200 * time.Microsecond,
		timeout:     60 * time.Second,
	}
	if cfg.Short {
		p.txnsPer = 8
		p.timeout = 30 * time.Second
	}
	if cfg.Plane == "udp" {
		p.txnsPer /= 2
		if p.txnsPer < 4 {
			p.txnsPer = 4
		}
	}
	return p
}

// moveOracle validates every rebalancer move report as it lands and keeps
// the waiter orderings for the post-run FIFO check.
type moveOracle struct {
	mu         sync.Mutex
	promotes   int
	demotes    int
	failures   int
	waitOrders []waitOrder
	// reports keeps every successful move for post-mortem dumps: when the
	// trace checker flags a lock, its move history is the first thing a
	// debugger needs.
	reports []rebalance.Report
	viol    error
}

// waitOrder is the (lock, mode) FIFO queue a move carried across the
// boundary, in queue order. The workload is all-exclusive, so the per-lock
// order is the full FIFO contract.
type waitOrder struct {
	lock    uint32
	waiting []uint64
}

// record validates one move report; both planes' rebalance loops call it.
func (o *moveOracle) record(r rebalance.Report, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil {
		// Failed moves (capacity races, a mid-kill chain) are re-planned by
		// the loop; only count them.
		o.failures++
		return
	}
	seen := make(map[uint64]bool, len(r.Granted)+len(r.Waiting))
	for _, txn := range r.Granted {
		if seen[txn] && o.viol == nil {
			o.viol = fmt.Errorf("move of lock %d carried granted txn %d twice", r.LockID, txn)
		}
		seen[txn] = true
	}
	for _, txn := range r.Waiting {
		if seen[txn] && o.viol == nil {
			o.viol = fmt.Errorf("move of lock %d carried txn %d twice", r.LockID, txn)
		}
		seen[txn] = true
	}
	if r.ToSwitch {
		o.promotes++
	} else {
		o.demotes++
	}
	o.reports = append(o.reports, r)
	if len(r.Waiting) > 0 {
		o.waitOrders = append(o.waitOrders, waitOrder{r.LockID, r.Waiting})
	}
}

// lockHistory formats every retained move of one lock, for violation
// post-mortems.
func (o *moveOracle) lockHistory(lock uint32) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := ""
	for _, r := range o.reports {
		if r.LockID != lock {
			continue
		}
		dir := "demote"
		if r.ToSwitch {
			dir = "promote"
		}
		out += fmt.Sprintf(" [%s granted=%d waiting=%d]", dir, r.Granted, r.Waiting)
	}
	if out == "" {
		return " (no moves)"
	}
	return out
}

func (o *moveOracle) counts() (promotes, demotes, failures int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.promotes, o.demotes, o.failures
}

// grantLog records the order grants completed per lock. For an exclusive
// lock the recording order equals the true grant order: the next grant is
// only delivered after the previous holder's release, which follows its
// recording.
type grantLog struct {
	mu    sync.Mutex
	order map[uint32][]uint64
}

func newGrantLog() *grantLog { return &grantLog{order: make(map[uint32][]uint64)} }

func (g *grantLog) add(lock uint32, txn uint64) {
	g.mu.Lock()
	g.order[lock] = append(g.order[lock], txn)
	g.mu.Unlock()
}

// fifoError is a verifyFIFO violation, typed so the caller can dump the
// offending lock's move history in the failure message.
type fifoError struct {
	lock uint32
	msg  string
}

func (e *fifoError) Error() string { return e.msg }

// verifyFIFO checks every migrated waiter queue against the realized grant
// order: each waiter a move carried must have been granted afterwards, and
// the waiters' relative grant order must match the migrated queue order.
func (g *grantLog) verifyFIFO(orders []waitOrder) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, wo := range orders {
		members := make(map[uint64]bool, len(wo.waiting))
		for _, txn := range wo.waiting {
			members[txn] = true
		}
		var got []uint64
		for _, txn := range g.order[wo.lock] {
			if members[txn] {
				got = append(got, txn)
			}
		}
		if len(got) != len(wo.waiting) {
			return &fifoError{wo.lock, fmt.Sprintf("lock %d: move carried %d waiters %v, only %d granted afterwards (%v)",
				wo.lock, len(wo.waiting), wo.waiting, len(got), got)}
		}
		for i := range got {
			if got[i] != wo.waiting[i] {
				return &fifoError{wo.lock, fmt.Sprintf("lock %d: migrated FIFO %v granted out of order as %v",
					wo.lock, wo.waiting, got)}
			}
		}
	}
	return nil
}

// hotPool returns phase p's lock IDs: disjoint sets, so a rotation swaps
// the entire working set and the old one must be demoted to make room.
func hotPool(p int32, size int) []uint32 {
	base := uint32(1)
	if p > 0 {
		base = uint32(11)
	}
	pool := make([]uint32, size)
	for i := range pool {
		pool[i] = base + uint32(i)
	}
	return pool
}

// pickZipf draws n distinct locks from pool, Zipf-skewed toward its head,
// sorted ascending (ordered 2PL: deadlock-free by construction, so every
// stall during a move or a kill is the migration's fault).
func pickZipf(rng *rand.Rand, zipf *rand.Zipf, pool []uint32, n int) []uint32 {
	seen := make(map[uint32]bool, n)
	var set []uint32
	for len(set) < n {
		id := pool[zipf.Uint64()]
		if !seen[id] {
			seen[id] = true
			set = append(set, id)
		}
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

func runRebalance(cfg Config) (*Summary, error) {
	pr := rebalanceSizes(cfg)
	oracle := &moveOracle{}
	glog := newGrantLog()

	pc := PlaneConfig{
		Kind:     cfg.Plane,
		Seed:     cfg.Seed,
		Chaos:    cfg.Chaos,
		Workers:  pr.workers,
		Switches: 3, // udp: replicated chain, survivable head kill mid-move
		Embedded: netlock.Config{
			Shards:            1,
			Servers:           2,
			SwitchSlots:       64,
			MaxSwitchLocks:    16,
			RebalanceInterval: 2 * time.Millisecond,
			RebalanceBudget:   2,
			OnRebalanceMove:   oracle.record,
		},
		DP:      switchdp.Config{MaxLocks: 16, TotalSlots: 64, Priorities: 1},
		Servers: 2,
		Server:  lockserver.Config{},
	}
	plane, err := NewPlane(pc)
	if err != nil {
		return nil, err
	}
	defer plane.Close()

	// Plane-specific control surfaces: the rebalance loop and the drain.
	var drain func() error
	var stopLoop func()
	switch pl := plane.(type) {
	case *embeddedPlane:
		// The Manager's built-in loop is already ticking (RebalanceInterval);
		// it stops with the Manager at Close.
		drain = func() error { return pl.m.DrainServer(0, 1) }
		stopLoop = func() {}
	case *udpPlane:
		ctrl := pl.tp.Controller()
		loop := rebalance.New(ctrl, rebalance.Config{
			Interval: 3 * time.Millisecond,
			Budget:   2,
			OnMove:   oracle.record,
		})
		loop.Start()
		drain = func() error { return ctrl.DrainServer(0, 1) }
		stopLoop = loop.Stop
	default:
		return nil, fmt.Errorf("scenario rebalance: plane %s has no rebalancer", plane.Name())
	}
	defer stopLoop()
	fi, ok := plane.(FaultInjector)
	if !ok {
		return nil, fmt.Errorf("scenario rebalance: plane %s has no FaultInjector", plane.Name())
	}

	rec := newRecorder()
	lat := &latencies{}
	var commits atomic.Int64
	var phase atomic.Int32
	want := pr.workers * pr.txnsPer

	ctx, cancel := context.WithTimeout(context.Background(), pr.timeout)
	defer cancel()

	// The coordinator fires each control action at its commit milestone, so
	// they land mid-sweep regardless of plane speed: drain server 0 at one
	// quarter, rotate the hot set at half, kill a node at three quarters
	// (embedded: the drained — and therefore empty — server 0; udp: the
	// chain head, while the rebalancer's migrations ride the chain).
	type action struct {
		at   int64
		run  func() error
		name string
	}
	kill := func() error { return fi.FailServer(0) }
	if plane.Name() == "udp" {
		kill = fi.FailHead
	}
	actions := []action{
		{int64(want) / 4, drain, "drain-server-0"},
		{int64(want) / 2, func() error { phase.Store(1); return nil }, "hot-set-rotation"},
		{3 * int64(want) / 4, kill, "node-kill"},
	}
	var acted atomic.Int64
	actErr := make(chan error, len(actions))
	stopActs := make(chan struct{})
	var actWG sync.WaitGroup
	actWG.Add(1)
	go func() {
		defer actWG.Done()
		next := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for next < len(actions) {
			select {
			case <-stopActs:
				return
			case <-tick.C:
			}
			if commits.Load() < actions[next].at {
				continue
			}
			if err := actions[next].run(); err != nil {
				actErr <- fmt.Errorf("%s: %w", actions[next].name, err)
				return
			}
			acted.Add(1)
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
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(pr.poolSize-1))
			for i := 0; i < pr.txnsPer; i++ {
				pool := hotPool(phase.Load(), pr.poolSize)
				set := pickZipf(rng, zipf, pool, pr.locksPerTxn)
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
					glog.add(lk, h.Txn())
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

	// Traffic has stopped but the loop still ticks: the silent hot set
	// decays out of the demand model and the rebalancer retires it — the
	// demotion path is exercised even on runs fast enough to finish before
	// the rotation's decay caught up.
	decayDeadline := time.Now().Add(5 * time.Second)
	for {
		_, demotes, _ := oracle.counts()
		if demotes >= 1 || time.Now().After(decayDeadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopActs)
	actWG.Wait()
	stopLoop()

	select {
	case err := <-actErr:
		return nil, failf(cfg.Seed, "scenario rebalance: %v", err)
	default:
	}
	for w, err := range errs {
		if err != nil {
			return nil, failf(cfg.Seed, "scenario rebalance: worker %d wedged: %v", w, err)
		}
	}
	if got := acted.Load(); got != int64(len(actions)) {
		return nil, failf(cfg.Seed, "scenario rebalance: %d/%d control actions fired (run finished too fast?)", got, len(actions))
	}

	promotes, demotes, failures := oracle.counts()
	oracle.mu.Lock()
	viol := oracle.viol
	orders := append([]waitOrder(nil), oracle.waitOrders...)
	oracle.mu.Unlock()
	if viol != nil {
		return nil, failf(cfg.Seed, "scenario rebalance: move oracle: %v", viol)
	}
	if promotes+demotes < 3 {
		return nil, failf(cfg.Seed, "scenario rebalance: only %d live moves completed (%d promotes, %d demotes), want >= 3",
			promotes+demotes, promotes, demotes)
	}
	if demotes == 0 {
		return nil, failf(cfg.Seed, "scenario rebalance: rotation never demoted a cooled lock")
	}
	if err := glog.verifyFIFO(orders); err != nil {
		var fe *fifoError
		if errors.As(err, &fe) {
			glog.mu.Lock()
			grantsForLock := append([]uint64(nil), glog.order[fe.lock]...)
			glog.mu.Unlock()
			return nil, failf(cfg.Seed, "scenario rebalance: migrated FIFO: %v; lock %d moves:%s; grant order %d",
				err, fe.lock, oracle.lockHistory(fe.lock), grantsForLock)
		}
		return nil, failf(cfg.Seed, "scenario rebalance: migrated FIFO: %v", err)
	}

	if v := rec.quiesce(); v != nil {
		glog.mu.Lock()
		grantsForLock := append([]uint64(nil), glog.order[v.Event.Lock]...)
		glog.mu.Unlock()
		return nil, failf(cfg.Seed, "scenario rebalance: trace: %v; lock %d moves:%s; grant order %d",
			v, v.Event.Lock, oracle.lockHistory(v.Event.Lock), grantsForLock)
	}
	if h := rec.holders(); len(h) != 0 {
		return nil, failf(cfg.Seed, "scenario rebalance: %d locks still held after the run drained: %v", len(h), h)
	}
	if c := int(commits.Load()); c != want {
		return nil, failf(cfg.Seed, "scenario rebalance: %d/%d transactions committed", c, want)
	}
	grants, _, releases := rec.stats()
	if grants == 0 || grants != releases {
		return nil, failf(cfg.Seed, "scenario rebalance: %d grants vs %d releases", grants, releases)
	}

	p50, p99 := lat.percentiles()
	return &Summary{
		Name:        "rebalance",
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
			"promotes":       float64(promotes),
			"demotes":        float64(demotes),
			"move_failures":  float64(failures),
			"actions_fired":  float64(acted.Load()),
			"migrated_fifos": float64(len(orders)),
		},
	}, nil
}
