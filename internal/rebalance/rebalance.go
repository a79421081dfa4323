// Package rebalance is the online lock-placement rebalancer: a control
// loop that watches per-lock demand gauges, smooths them across
// measurement windows, and incrementally promotes hot locks into the
// switch and demotes cooled ones to the lock servers — live, without
// stopping traffic, a bounded number of moves per round.
//
// The paper's allocator (Alg. 3, §4.4) solves placement once, offline,
// for a known workload. This loop closes it: the same fractional-knapsack
// objective re-solved each tick against the drifting measured demand,
// with memalloc.Resolve diffing the target against the current placement
// so only the locks whose residency should change move. The moves
// themselves are the live migrations of ctrlplane (UDP plane) or
// core.Manager (embedded plane), reached through the Mover interface.
package rebalance

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"netlock/internal/memalloc"
	"netlock/internal/wire"
)

// Report describes one completed move in the shape the scenario oracle
// consumes: which requests crossed the residency boundary holding the
// lock and which waiting, in queue order.
type Report struct {
	LockID   uint32
	ToSwitch bool
	Granted  []uint64
	Waiting  []uint64
}

// NewReport reports a move of st across the residency boundary: its
// holders and waiters by transaction, bank by bank in queue order.
func NewReport(st wire.LockState, toSwitch bool) Report {
	rep := Report{LockID: st.LockID, ToSwitch: toSwitch}
	for _, bank := range st.Banks {
		for _, e := range bank {
			if e.Granted {
				rep.Granted = append(rep.Granted, e.Hdr.TxnID)
			} else {
				rep.Waiting = append(rep.Waiting, e.Hdr.TxnID)
			}
		}
	}
	return rep
}

// Mover is the placement-control surface the loop drives. Both rack
// planes implement it: ctrlplane.Controller via live chain migration, and
// each embedded netlock.Manager shard via core.Manager's in-process moves.
type Mover interface {
	// MeasureDemands reads and clears the per-lock load gauges,
	// normalized over windowSec seconds.
	MeasureDemands(windowSec float64) []memalloc.Demand
	// Placement returns each switch-resident lock's total slot count.
	Placement() map[uint32]uint64
	// SwitchCapacity returns the switch's total queue-slot capacity.
	SwitchCapacity() uint64
	// MoveToSwitch live-promotes a server-owned lock with the given total
	// slot count; MoveToServer live-demotes a resident lock.
	MoveToSwitch(lockID uint32, slots uint64) (Report, error)
	MoveToServer(lockID uint32) (Report, error)
}

// Config tunes the loop.
type Config struct {
	// Interval is the tick period for Start (default 100ms). Each Tick
	// measures one window and executes at most Budget moves.
	Interval time.Duration
	// Window is the measurement normalization in seconds; 0 derives it
	// from Interval.
	Window float64
	// Budget caps moves per tick (default 4). A promotion and the
	// demotions making room for it count separately, so a small budget
	// spreads a placement flip over several ticks instead of pausing
	// many locks at once.
	Budget int
	// Alpha is the EWMA weight of the newest window (default 0.5, range
	// (0,1]). Lower values smooth harder: a lock must stay hot across
	// windows before it earns promotion, so measurement noise does not
	// churn migrations.
	Alpha float64
	// Headroom is the fraction of switch capacity withheld from the
	// allocator (default 0.1), kept free so promotions have somewhere to
	// land between compactions.
	Headroom float64
	// MinSlots floors a promoted lock's slot grant (default 8).
	MinSlots uint64
	// SlotHeadroom over-provisions every promoted lock's slot grant by
	// this fraction above its smoothed peak contention (default 0.25;
	// negative disables). Sizing a region at exactly the measured peak
	// starves admission: the moment demand ticks above the last window's
	// peak, the saturated switch queue detours every extra acquire through
	// the server's overflow buffer, where it waits on a queue-drained push
	// a busy lock rarely sends. The headroom keeps a margin of free slots
	// so growth is absorbed in the switch until the next window re-sizes.
	SlotHeadroom float64
	// PromoteRate is the minimum smoothed request rate (req/s) for a lock
	// to be considered for switch residency (default 10). The knapsack
	// alone would fill leftover capacity with arbitrarily cold locks —
	// free in the paper's offline model, but here every placement change
	// is a live migration, so a lock must be measurably hot to earn one.
	PromoteRate float64
	// OnMove, when set, observes every attempted move: the report (zero
	// on failure) and the error. Called synchronously from Tick — the
	// scenario oracle validates migrated state here, before traffic
	// reshapes it.
	OnMove func(Report, error)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 100 * time.Millisecond
	}
	if out.Window <= 0 {
		out.Window = out.Interval.Seconds()
	}
	if out.Budget <= 0 {
		out.Budget = 4
	}
	if out.Alpha <= 0 || out.Alpha > 1 {
		out.Alpha = 0.5
	}
	if out.Headroom < 0 || out.Headroom >= 1 {
		out.Headroom = 0.1
	}
	if out.MinSlots == 0 {
		out.MinSlots = 8
	}
	if out.SlotHeadroom == 0 {
		out.SlotHeadroom = 0.25
	} else if out.SlotHeadroom < 0 {
		out.SlotHeadroom = 0
	}
	if out.PromoteRate == 0 {
		out.PromoteRate = 10
	}
	return out
}

// Stats counts the loop's work. Cheap value copy.
type Stats struct {
	Ticks      uint64
	Promotions uint64
	Demotions  uint64
	Failures   uint64
	// Planned counts moves the planner asked for, executed or not.
	Planned uint64
}

// Planner folds measurement windows into a smoothed demand model and
// diffs the knapsack target against the live placement. Deterministic:
// the same window sequence yields the same plans (memalloc breaks score
// ties by lock ID). Not safe for concurrent use; the Loop serializes.
type Planner struct {
	alpha        float64
	headroom     float64
	minSlots     uint64
	slotHeadroom float64
	promoteRate  float64
	ewma         map[uint32]memalloc.Demand
}

// NewPlanner builds a planner with cfg's smoothing parameters.
func NewPlanner(cfg Config) *Planner {
	c := cfg.withDefaults()
	return &Planner{
		alpha:        c.Alpha,
		headroom:     c.Headroom,
		minSlots:     c.MinSlots,
		slotHeadroom: c.SlotHeadroom,
		promoteRate:  c.PromoteRate,
		ewma:         make(map[uint32]memalloc.Demand),
	}
}

// Observe folds one measurement window into the smoothed model. Locks
// absent from the window decay toward zero and are dropped once cold, so
// a rotated-out hot set releases its switch claim within a few windows.
func (p *Planner) Observe(window []memalloc.Demand) {
	seen := make(map[uint32]bool, len(window))
	for _, d := range window {
		seen[d.LockID] = true
		old := p.ewma[d.LockID]
		p.ewma[d.LockID] = memalloc.Demand{
			LockID:     d.LockID,
			Rate:       p.alpha*d.Rate + (1-p.alpha)*old.Rate,
			Contention: smooth(p.alpha, d.Contention, old.Contention),
		}
	}
	for id, d := range p.ewma {
		if seen[id] {
			continue
		}
		d.Rate *= 1 - p.alpha
		// Below one request per second the lock is cold by any measure:
		// drop it from the model entirely, so if it is still
		// switch-resident it becomes an unmeasured resident — exactly
		// what memalloc.Resolve demotes first. Keeping a vanishing tail
		// would let a rotated-out hot set squat on switch memory forever
		// (tiny target allocations always fit, so nothing would evict
		// them).
		if d.Rate < 1 {
			delete(p.ewma, id)
			continue
		}
		d.Contention = smooth(p.alpha, 0, d.Contention)
		p.ewma[id] = d
	}
}

// padSlots widens a contention gauge by the admission-headroom fraction,
// rounding up so any non-zero headroom grants at least one spare slot.
func padSlots(contention uint64, headroom float64) uint64 {
	if headroom <= 0 || contention == 0 {
		return contention
	}
	v := float64(contention) * (1 + headroom)
	n := uint64(v)
	if float64(n) < v {
		n++
	}
	return n
}

// smooth EWMA-blends an integer gauge, rounding up so a single busy
// window registers immediately while decay still reaches zero.
func smooth(alpha float64, sample, old uint64) uint64 {
	v := alpha*float64(sample) + (1-alpha)*float64(old)
	n := uint64(v)
	if float64(n) < v {
		n++
	}
	return n
}

// Demands returns the smoothed demand set, ascending by lock ID. The
// admission headroom and the MinSlots floor are applied here — before the
// knapsack — so slot grants and capacity accounting agree (a post-hoc
// adjustment would hand out more slots than the plan reserved).
func (p *Planner) Demands() []memalloc.Demand {
	out := make([]memalloc.Demand, 0, len(p.ewma))
	for _, d := range p.ewma {
		if d.Rate < p.promoteRate {
			// Too cold for switch residency; if currently resident, its
			// absence from the demand set makes it a demote candidate.
			continue
		}
		d.Contention = padSlots(d.Contention, p.slotHeadroom)
		if d.Contention < p.minSlots {
			d.Contention = p.minSlots
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LockID < out[j].LockID })
	return out
}

// Plan diffs the knapsack target for the smoothed demands against the
// current placement and returns at most budget moves, demotions ordered
// before the promotions they make room for.
func (p *Planner) Plan(current map[uint32]uint64, capacity uint64, budget int) []memalloc.Move {
	usable := capacity - uint64(float64(capacity)*p.headroom)
	_, moves := memalloc.Resolve(p.Demands(), usable, current, budget)
	return moves
}

// Loop drives a Mover: each tick measures a window, updates the planner,
// and executes the planned moves. Safe for concurrent use.
type Loop struct {
	cfg     Config
	mover   Mover
	planner *Planner

	mu    sync.Mutex
	stats Stats

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a loop over the mover. Call Start for background ticking or
// Tick directly for deterministic single-threaded control (tests,
// scenarios, the embedded plane's RebalanceTick).
func New(m Mover, cfg Config) *Loop {
	c := cfg.withDefaults()
	return &Loop{
		cfg:     c,
		mover:   m,
		planner: NewPlanner(c),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Tick runs one synchronous measure-plan-move round and returns the
// number of moves executed successfully.
func (l *Loop) Tick() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Ticks++
	l.planner.Observe(l.mover.MeasureDemands(l.cfg.Window))
	moves := l.planner.Plan(l.mover.Placement(), l.mover.SwitchCapacity(), l.cfg.Budget)
	l.stats.Planned += uint64(len(moves))
	ok := 0
	for _, mv := range moves {
		var rep Report
		var err error
		if mv.Promote {
			rep, err = l.mover.MoveToSwitch(mv.LockID, mv.Slots)
		} else {
			rep, err = l.mover.MoveToServer(mv.LockID)
		}
		if l.cfg.OnMove != nil {
			l.cfg.OnMove(rep, err)
		}
		if err != nil {
			// A failed move (capacity race, lock mid-failover) is not
			// fatal: the placement diff re-plans it next tick.
			l.stats.Failures++
			continue
		}
		ok++
		if mv.Promote {
			l.stats.Promotions++
		} else {
			l.stats.Demotions++
		}
	}
	return ok
}

// Start launches the background ticker. Stop halts it; Start after Stop
// is a no-op.
func (l *Loop) Start() {
	l.startOnce.Do(func() {
		go func() {
			defer close(l.done)
			t := time.NewTicker(l.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-t.C:
					l.Tick()
				}
			}
		}()
	})
}

// Stop halts the background ticker and waits for the in-flight tick.
func (l *Loop) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.startOnce.Do(func() { close(l.done) }) // never started: unblock Stop
	<-l.done
}

// Stats returns a snapshot of the loop's counters.
func (l *Loop) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// String formats the counters for log lines.
func (s Stats) String() string {
	return fmt.Sprintf("ticks=%d planned=%d promoted=%d demoted=%d failed=%d",
		s.Ticks, s.Planned, s.Promotions, s.Demotions, s.Failures)
}
