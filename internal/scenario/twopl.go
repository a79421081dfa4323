package scenario

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/check"
	"netlock/internal/ctrlplane"
	"netlock/internal/lockserver"
	"netlock/internal/switchdp"
)

// Policy selects the deadlock-resolution discipline layered on the lock
// API.
type Policy int

const (
	// PolicyNone performs no request-time checks: every deadlock must be
	// caught and resolved by the wait-for-graph guard. The cycle-detector
	// oracle test runs this.
	PolicyNone Policy = iota
	// PolicyWaitDie: a requester conflicting with an older holder aborts
	// itself (dies); older requesters wait. Non-preemptive.
	PolicyWaitDie
	// PolicyWoundWait: a requester conflicting with a younger holder
	// aborts it (wounds); younger requesters wait. Preemptive.
	PolicyWoundWait
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyWaitDie:
		return "wait-die"
	case PolicyWoundWait:
		return "wound-wait"
	}
	return "policy?"
}

// twoTxn is one logical transaction. ts is its age (smaller = older) and
// is kept across retries, so the oldest transaction eventually conflicts
// with no one and commits — the classic starvation-freedom argument for
// both policies. Everything else is guarded by twoPL.mu.
type twoTxn struct {
	ts      uint64
	aid     uint64 // current attempt ID, for the txn-level trace
	wounded bool
	active  bool
	waiting uint32 // lock this txn is blocked acquiring (0 = none)
	held    []heldLock
}

type heldLock struct {
	lock uint32
	h    Handle
}

// twoPLStats counts resolution outcomes.
type twoPLStats struct {
	commits        int
	dieAborts      int // wait-die: requester killed itself
	woundAborts    int // wound-wait: holder killed at request time
	cycleAborts    int // guard: victim killed to break a detected cycle
	cyclesDetected int
}

// twoPL executes deadlock-prone two-phase-locking transactions on a
// Plane. Request-time policy checks (wait-die / wound-wait) resolve the
// conflicts they can see, but the check and the data-plane enqueue are
// not atomic — a grant can land between them — so residual cycles are
// possible by construction. A periodic guard builds the wait-for graph
// and wounds the youngest member of any cycle.
//
// Aborting never cancels an in-flight acquire: cancelling a queued
// request leaves a stale entry in the data plane that only a lease sweep
// reclaims. Instead the victim's *held* locks are released on its behalf
// (ownership of the handles moves under mu, so each handle is released
// exactly once), and when its blocked acquire eventually returns the
// victim releases that fresh grant itself and restarts.
type twoPL struct {
	plane  Plane
	policy Policy
	rec    *recorder
	lat    *latencies

	// txnCk validates the transaction-level discipline (two-phase,
	// atomic hold, per-attempt conservation) over logical attempt IDs.
	// Observed only with mu held. CheckOrder is off: this workload
	// acquires out of order on purpose.
	txnCk   *check.TxnChecker
	txnViol *check.Violation

	mu      sync.Mutex
	holders map[uint32]map[*twoTxn]bool
	txns    map[uint64]*twoTxn // ts -> active txn
	stats   twoPLStats

	nextTS atomic.Uint64

	stopCh  chan struct{}
	guardWG sync.WaitGroup
}

func newTwoPL(plane Plane, policy Policy, guardEvery time.Duration) *twoPL {
	tc := check.NewTxnChecker(nil)
	tc.CheckOrder = false
	p := &twoPL{
		plane:   plane,
		policy:  policy,
		rec:     newRecorder(),
		lat:     &latencies{},
		txnCk:   tc,
		holders: make(map[uint32]map[*twoTxn]bool),
		txns:    make(map[uint64]*twoTxn),
		stopCh:  make(chan struct{}),
	}
	p.guardWG.Add(1)
	go func() {
		defer p.guardWG.Done()
		tick := time.NewTicker(guardEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
				p.guardTick()
			}
		}
	}()
	return p
}

func (p *twoPL) stopGuard() {
	close(p.stopCh)
	p.guardWG.Wait()
}

// txnObserve feeds the txn-level checker; callers hold p.mu.
func (p *twoPL) txnObserve(e check.Event) {
	if p.txnViol == nil {
		p.txnViol = p.txnCk.Observe(e)
	}
}

// releaseAllLocked releases every lock t holds, emitting both trace
// levels. Callers hold p.mu; handle ownership ends here.
func (p *twoPL) releaseAllLocked(t *twoTxn) {
	for _, hl := range t.held {
		p.rec.released(hl.lock, hl.h.Txn(), true, 0)
		p.txnObserve(check.Event{Kind: check.EvRelease, Lock: hl.lock, Txn: t.aid, Excl: true})
		hl.h.Release()
		delete(p.holders[hl.lock], t)
	}
	t.held = nil
}

// woundLocked marks t for abort and releases its held locks on its
// behalf. Callers hold p.mu.
func (p *twoPL) woundLocked(t *twoTxn) {
	if t.wounded || !t.active {
		return
	}
	t.wounded = true
	p.releaseAllLocked(t)
}

// finishLocked retires the current attempt. Callers hold p.mu and have
// already emptied t.held.
func (p *twoPL) finishLocked(t *twoTxn) {
	t.active = false
	t.waiting = 0
	delete(p.txns, t.ts)
}

// guardTick builds the wait-for graph and breaks one cycle by wounding
// its youngest member — the resolution backstop for the races the
// request-time policies cannot see (and the whole resolution mechanism
// under PolicyNone).
func (p *twoPL) guardTick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := newWaitGraph()
	for _, t := range p.txns {
		if !t.active || t.wounded || t.waiting == 0 {
			continue
		}
		for h := range p.holders[t.waiting] {
			if h != t {
				g.addEdge(t.ts, h.ts)
			}
		}
	}
	cycle := g.findCycle()
	if cycle == nil {
		return
	}
	p.stats.cyclesDetected++
	var victim *twoTxn
	for _, ts := range cycle {
		t := p.txns[ts]
		if t == nil || !t.active || t.wounded {
			continue
		}
		if victim == nil || t.ts > victim.ts {
			victim = t
		}
	}
	if victim != nil {
		p.stats.cycleAborts++
		p.woundLocked(victim)
	}
}

// runAttempt executes one attempt of t over the (deliberately unordered)
// lock set. Returns committed=false for a policy or cycle abort; err is
// fatal (context expiry — a wedge or shutdown).
func (p *twoPL) runAttempt(ctx context.Context, worker int, t *twoTxn, set []uint32, think time.Duration) (bool, error) {
	for _, lk := range set {
		p.mu.Lock()
		if t.wounded {
			p.finishLocked(t)
			p.mu.Unlock()
			return false, nil
		}
		switch p.policy {
		case PolicyWaitDie:
			died := false
			for h := range p.holders[lk] {
				if h.ts < t.ts { // older holder: the younger requester dies
					died = true
					break
				}
			}
			if died {
				p.stats.dieAborts++
				p.releaseAllLocked(t)
				p.finishLocked(t)
				p.mu.Unlock()
				return false, nil
			}
		case PolicyWoundWait:
			for h := range p.holders[lk] {
				if h.ts > t.ts { // younger holder: the older requester wounds it
					p.stats.woundAborts++
					p.woundLocked(h)
				}
			}
		}
		t.waiting = lk
		p.mu.Unlock()

		start := time.Now()
		h, err := p.plane.Acquire(ctx, worker, lk, netlock.Exclusive)
		p.lat.add(time.Since(start))

		p.mu.Lock()
		t.waiting = 0
		if err != nil {
			p.releaseAllLocked(t)
			p.finishLocked(t)
			p.mu.Unlock()
			return false, err
		}
		if t.wounded {
			// The grant raced the wound. Our held locks are already
			// released; hand this one straight back.
			p.rec.granted(lk, h.Txn(), true, 0, 0)
			p.rec.released(lk, h.Txn(), true, 0)
			h.Release()
			p.finishLocked(t)
			p.mu.Unlock()
			return false, nil
		}
		p.rec.granted(lk, h.Txn(), true, 0, 0)
		p.txnObserve(check.Event{Kind: check.EvAcquire, Lock: lk, Txn: t.aid, Excl: true})
		p.txnObserve(check.Event{Kind: check.EvGrant, Lock: lk, Txn: t.aid, Excl: true})
		t.held = append(t.held, heldLock{lk, h})
		hm := p.holders[lk]
		if hm == nil {
			hm = make(map[*twoTxn]bool)
			p.holders[lk] = hm
		}
		hm[t] = true
		p.mu.Unlock()
	}

	if think > 0 {
		time.Sleep(think)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if t.wounded {
		p.finishLocked(t)
		return false, nil
	}
	p.releaseAllLocked(t)
	p.stats.commits++
	p.finishLocked(t)
	return true, nil
}

// maxAttempts bounds retries per transaction; exceeding it means
// resolution failed to make progress — an unresolved deadlock.
const maxAttempts = 10_000

// runTxn drives one logical transaction to commit, retrying attempts
// under a jittered backoff. The timestamp is assigned once, so age
// seniority accumulates across retries.
func (p *twoPL) runTxn(ctx context.Context, worker int, rng *rand.Rand, set []uint32, think time.Duration) error {
	t := &twoTxn{ts: p.nextTS.Add(1)}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		p.mu.Lock()
		t.wounded = false
		t.active = true
		t.aid = t.ts*1_000_000 + uint64(attempt)
		p.txns[t.ts] = t
		p.mu.Unlock()

		committed, err := p.runAttempt(ctx, worker, t, set, think)
		if err != nil {
			return err
		}
		if committed {
			return nil
		}
		time.Sleep(time.Duration(50+rng.Intn(450)) * time.Microsecond)
	}
	return context.DeadlineExceeded
}

// statsSnapshot returns a copy of the counters.
func (p *twoPL) statsSnapshot() twoPLStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// twoPLParams sizes one run.
type twoPLParams struct {
	workers     int
	txnsPer     int
	lockPool    int
	locksPerTxn int
	think       time.Duration
	guardEvery  time.Duration
	timeout     time.Duration
}

func twoPLSizes(cfg Config) twoPLParams {
	p := twoPLParams{
		workers:     4,
		txnsPer:     25,
		lockPool:    6,
		locksPerTxn: 3,
		think:       200 * time.Microsecond,
		guardEvery:  time.Millisecond,
		timeout:     60 * time.Second,
	}
	if cfg.Short {
		p.txnsPer = 6
		p.timeout = 30 * time.Second
	}
	if cfg.Plane == "udp" {
		// Network RTTs and chaos retransmits make each lock slower;
		// trim volume, widen the guard (cycles take longer to form).
		p.txnsPer /= 2
		if p.txnsPer == 0 {
			p.txnsPer = 1
		}
		p.guardEvery = 2 * time.Millisecond
	}
	return p
}

func twoPLPlane(cfg Config, pr twoPLParams) (Plane, error) {
	pc := PlaneConfig{
		Kind:    cfg.Plane,
		Seed:    cfg.Seed,
		Chaos:   cfg.Chaos,
		Workers: pr.workers,
		Embedded: netlock.Config{
			Shards:         2,
			Servers:        1,
			SwitchSlots:    64,
			MaxSwitchLocks: 16,
		},
		DP:      switchdp.Config{MaxLocks: 16, TotalSlots: 64, Priorities: 1},
		Servers: 1,
		Server:  lockserver.Config{},
	}
	// Half the pool switch-resident, half server-owned, so transactions
	// span both paths.
	for id := 1; id <= pr.lockPool/2; id++ {
		pc.SwitchLocks = append(pc.SwitchLocks, ctrlplane.SwitchLock{ID: uint32(id), Slots: 8})
	}
	return NewPlane(pc)
}

// runTwoPLOn executes the 2PL scenario on an already-built plane —
// shared by the registry runner and the policy sweep/oracle tests.
func runTwoPLOn(plane Plane, policy Policy, cfg Config, pr twoPLParams) (*Summary, *twoPL, error) {
	p := newTwoPL(plane, policy, pr.guardEvery)
	ctx, cancel := context.WithTimeout(context.Background(), pr.timeout)
	defer cancel()

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
				if err := p.runTxn(ctx, w, rng, set, pr.think); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	p.stopGuard()

	for w, err := range errs {
		if err != nil {
			return nil, p, failf(cfg.Seed, "scenario 2pl-%s: worker %d wedged: %v", policy, w, err)
		}
	}
	if v := p.rec.quiesce(); v != nil {
		return nil, p, failf(cfg.Seed, "scenario 2pl-%s: per-lock trace: %v", policy, v)
	}
	p.mu.Lock()
	txnViol := p.txnViol
	if txnViol == nil {
		txnViol = p.txnCk.Quiesce()
	}
	completed := p.txnCk.Completed()
	p.mu.Unlock()
	if txnViol != nil {
		return nil, p, failf(cfg.Seed, "scenario 2pl-%s: txn trace: %v", policy, txnViol)
	}

	st := p.statsSnapshot()
	want := pr.workers * pr.txnsPer
	if st.commits != want {
		return nil, p, failf(cfg.Seed, "scenario 2pl-%s: %d/%d transactions committed", policy, st.commits, want)
	}
	if completed == 0 {
		return nil, p, failf(cfg.Seed, "scenario 2pl-%s: vacuous txn trace", policy)
	}

	grants, _, _ := p.rec.stats()
	p50, p99 := p.lat.percentiles()
	sum := &Summary{
		Name:           "2pl-" + policy.String(),
		Plane:          plane.Name(),
		Seed:           cfg.Seed,
		Chaos:          cfg.Chaos,
		DurationSec:    elapsed.Seconds(),
		Ops:            grants,
		Throughput:     float64(grants) / elapsed.Seconds(),
		P50us:          p50,
		P99us:          p99,
		Commits:        st.commits,
		DeadlockAborts: st.dieAborts + st.woundAborts + st.cycleAborts,
		CycleAborts:    st.cycleAborts,
		Extra: map[string]float64{
			"die_aborts":      float64(st.dieAborts),
			"wound_aborts":    float64(st.woundAborts),
			"cycles_detected": float64(st.cyclesDetected),
		},
	}
	return sum, p, nil
}

func runTwoPL(cfg Config, policy Policy) (*Summary, error) {
	pr := twoPLSizes(cfg)
	plane, err := twoPLPlane(cfg, pr)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	sum, _, err := runTwoPLOn(plane, policy, cfg, pr)
	return sum, err
}

// pickLocks draws n distinct locks from pool [1..pool] in random order —
// the deadlock-prone shape: no global ordering discipline.
func pickLocks(rng *rand.Rand, pool, n int) []uint32 {
	perm := rng.Perm(pool)
	set := make([]uint32, n)
	for i := 0; i < n; i++ {
		set[i] = uint32(perm[i] + 1)
	}
	return set
}
