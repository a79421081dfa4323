package rebalance

import (
	"fmt"
	"testing"

	"netlock/internal/memalloc"
)

// fakeMover is a scripted placement surface: windows are queued demands,
// moves mutate an in-memory placement map, and every move is journaled.
type fakeMover struct {
	windows  [][]memalloc.Demand
	placed   map[uint32]uint64
	capacity uint64
	journal  []string
	failNext error
}

func newFakeMover(capacity uint64) *fakeMover {
	return &fakeMover{placed: make(map[uint32]uint64), capacity: capacity}
}

func (f *fakeMover) push(w ...[]memalloc.Demand) { f.windows = append(f.windows, w...) }

func (f *fakeMover) MeasureDemands(windowSec float64) []memalloc.Demand {
	if len(f.windows) == 0 {
		return nil
	}
	w := f.windows[0]
	f.windows = f.windows[1:]
	return w
}

func (f *fakeMover) Placement() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(f.placed))
	for k, v := range f.placed {
		out[k] = v
	}
	return out
}

func (f *fakeMover) SwitchCapacity() uint64 { return f.capacity }

func (f *fakeMover) MoveToSwitch(lockID uint32, slots uint64) (Report, error) {
	if err := f.failNext; err != nil {
		f.failNext = nil
		return Report{}, err
	}
	if _, ok := f.placed[lockID]; ok {
		return Report{}, fmt.Errorf("lock %d already resident", lockID)
	}
	f.placed[lockID] = slots
	f.journal = append(f.journal, fmt.Sprintf("promote %d/%d", lockID, slots))
	return Report{LockID: lockID, ToSwitch: true}, nil
}

func (f *fakeMover) MoveToServer(lockID uint32) (Report, error) {
	if err := f.failNext; err != nil {
		f.failNext = nil
		return Report{}, err
	}
	if _, ok := f.placed[lockID]; !ok {
		return Report{}, fmt.Errorf("lock %d not resident", lockID)
	}
	delete(f.placed, lockID)
	f.journal = append(f.journal, fmt.Sprintf("demote %d", lockID))
	return Report{LockID: lockID, ToSwitch: false}, nil
}

func window(ds ...memalloc.Demand) []memalloc.Demand { return ds }

func hot(id uint32) memalloc.Demand  { return memalloc.Demand{LockID: id, Rate: 1000, Contention: 4} }
func cold(id uint32) memalloc.Demand { return memalloc.Demand{LockID: id, Rate: 1, Contention: 1} }

// TestLoopPromotesHotSet: sustained hot locks are promoted; cold locks
// stay on the servers.
func TestLoopPromotesHotSet(t *testing.T) {
	fm := newFakeMover(100)
	fm.push(window(hot(1), hot(2), cold(7)), window(hot(1), hot(2), cold(7)))
	l := New(fm, Config{})
	l.Tick()
	l.Tick()
	if _, ok := fm.placed[1]; !ok {
		t.Fatalf("hot lock 1 not promoted; placement %v", fm.placed)
	}
	if _, ok := fm.placed[2]; !ok {
		t.Fatalf("hot lock 2 not promoted; placement %v", fm.placed)
	}
	if _, ok := fm.placed[7]; ok {
		t.Fatal("cold lock 7 promoted")
	}
	st := l.Stats()
	if st.Promotions < 2 || st.Demotions != 0 || st.Failures != 0 {
		t.Fatalf("unexpected stats %v", st)
	}
}

// TestLoopRotatesHotSet: when the hot set rotates, the cooled locks are
// demoted (freeing their slots) and the newly hot ones promoted — within
// the per-tick budget, over as many ticks as that takes.
func TestLoopRotatesHotSet(t *testing.T) {
	fm := newFakeMover(30)
	// Phase 1: locks 1-3 hot (8 slots each under the minSlots floor; 27
	// usable slots fit all three).
	for i := 0; i < 4; i++ {
		fm.push(window(hot(1), hot(2), hot(3)))
	}
	// Phase 2: rotation — locks 11-13 hot, old set silent. The old set
	// must decay out of the demand model (becoming unmeasured residents)
	// before its slots free up for the new set.
	for i := 0; i < 8; i++ {
		fm.push(window(hot(11), hot(12), hot(13)))
	}
	l := New(fm, Config{})
	l.planner.alpha = 0.7
	for i := 0; i < 14; i++ {
		l.Tick()
	}
	for id := uint32(1); id <= 3; id++ {
		if _, ok := fm.placed[id]; ok {
			t.Errorf("cooled lock %d still resident after rotation; journal %v", id, fm.journal)
		}
	}
	promoted := 0
	for id := uint32(11); id <= 13; id++ {
		if _, ok := fm.placed[id]; ok {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatalf("no rotated-in lock promoted; placement %v journal %v", fm.placed, fm.journal)
	}
	st := l.Stats()
	if st.Demotions == 0 {
		t.Fatalf("rotation produced no demotions: %v", st)
	}
}

// TestLoopBudget: a tick never executes more moves than the budget.
func TestLoopBudget(t *testing.T) {
	fm := newFakeMover(1000)
	var w []memalloc.Demand
	for id := uint32(1); id <= 20; id++ {
		w = append(w, hot(id))
	}
	fm.push(w)
	l := New(fm, Config{Budget: 3})
	if n := l.Tick(); n > 3 {
		t.Fatalf("tick executed %d moves with budget 3", n)
	}
	if len(fm.journal) > 3 {
		t.Fatalf("mover saw %d moves with budget 3: %v", len(fm.journal), fm.journal)
	}
}

// TestLoopSmoothingResistsFlap: under heavy smoothing, a lock hot for a
// single window does not displace a steadily hot resident — its smoothed
// rate never approaches the resident's.
func TestLoopSmoothingResistsFlap(t *testing.T) {
	fm := newFakeMover(10) // usable 9: fits exactly one 8-slot lock
	fm.placed[9] = 8
	fm.push(
		window(hot(9), cold(5)),
		window(hot(9), hot(5)), // the flap
		window(hot(9), cold(5)),
		window(hot(9), cold(5)),
	)
	l := New(fm, Config{})
	l.planner.alpha = 0.2
	for i := 0; i < 4; i++ {
		l.Tick()
	}
	if got, ok := fm.placed[9]; !ok || got != 8 {
		t.Fatalf("steady resident 9 displaced by a one-window flap; placement %v journal %v",
			fm.placed, fm.journal)
	}
}

// TestLoopMoveFailureIsRetried: a failed move is counted, does not abort
// the tick, and the placement diff re-plans it next tick.
func TestLoopMoveFailureIsRetried(t *testing.T) {
	fm := newFakeMover(100)
	fm.push(window(hot(4)), window(hot(4)))
	var calls int
	l := New(fm, Config{OnMove: func(r Report, err error) { calls++ }})
	fm.failNext = fmt.Errorf("chain mid-failover")
	if n := l.Tick(); n != 0 {
		t.Fatalf("failed move reported as executed (%d)", n)
	}
	if st := l.Stats(); st.Failures != 1 {
		t.Fatalf("failure not counted: %v", st)
	}
	l.Tick()
	if _, ok := fm.placed[4]; !ok {
		t.Fatalf("move not retried after failure; journal %v", fm.journal)
	}
	if calls != 2 {
		t.Fatalf("OnMove saw %d calls, want 2", calls)
	}
}

// TestPlannerDeterministic: identical window sequences produce identical
// plans, including under score ties.
func TestPlannerDeterministic(t *testing.T) {
	mkPlan := func() []memalloc.Move {
		p := NewPlanner()
		p.Observe(window(hot(3), hot(1), hot(2)))
		p.Observe(window(hot(2), hot(3), hot(1)))
		return p.Plan(map[uint32]uint64{}, 20, 8)
	}
	a, b := mkPlan(), mkPlan()
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no moves planned for a hot set on an empty switch")
	}
}

// TestPlannerDecayDropsSilentLocks: a lock that stops appearing decays
// out of the demand model entirely.
func TestPlannerDecayDropsSilentLocks(t *testing.T) {
	p := NewPlanner()
	p.Observe(window(hot(6)))
	for i := 0; i < 40; i++ {
		p.Observe(nil)
	}
	for _, d := range p.Demands() {
		if d.LockID == 6 && d.Rate > 1e-3 {
			t.Fatalf("silent lock still carries rate %f", d.Rate)
		}
	}
}

// TestSlotHeadroom: promoted locks are granted spare slots above measured
// peak contention, so demand growth is absorbed in the switch instead of
// detouring through the server overflow path (admission starvation).
func TestSlotHeadroom(t *testing.T) {
	p := NewPlanner()
	p.alpha, p.minSlots = 1, 1
	p.Observe(window(memalloc.Demand{LockID: 3, Rate: 1000, Contention: 8}))
	ds := p.Demands()
	if len(ds) != 1 || ds[0].Contention != 10 { // ceil(8 * 1.25)
		t.Fatalf("demands = %+v, want lock 3 at 10 slots (measured 8 + default headroom)", ds)
	}

	// Any non-zero headroom grants at least one spare slot.
	p = NewPlanner()
	p.alpha, p.minSlots, p.slotHeadroom = 1, 1, 0.01
	p.Observe(window(memalloc.Demand{LockID: 3, Rate: 1000, Contention: 2}))
	if ds := p.Demands(); ds[0].Contention != 3 {
		t.Fatalf("contention = %d, want 3 (2 + one spare slot)", ds[0].Contention)
	}

	// Zero disables; the minSlots floor still applies after padding.
	p = NewPlanner()
	p.alpha, p.slotHeadroom = 1, 0
	p.Observe(window(memalloc.Demand{LockID: 3, Rate: 1000, Contention: 2}))
	if ds := p.Demands(); ds[0].Contention != 8 {
		t.Fatalf("contention = %d, want the minSlots floor 8", ds[0].Contention)
	}
}
