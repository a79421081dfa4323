package netlock

import (
	"context"
	"sync"
	"testing"
	"time"

	"netlock/internal/lockserver"
)

// waitUntil polls cond until it returns true or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// moveLog collects OnRebalanceMove reports and errors under a mutex.
type moveLog struct {
	mu    sync.Mutex
	moves []loggedMove
}

// loggedMove is one observed move report and its error.
type loggedMove struct {
	RebalanceMove
	Err error
}

func (l *moveLog) add(mv RebalanceMove, err error) {
	l.mu.Lock()
	l.moves = append(l.moves, loggedMove{mv, err})
	l.mu.Unlock()
}

func (l *moveLog) snapshot() []loggedMove {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedMove(nil), l.moves...)
}

// TestRebalanceTickPromotesHot: sustained traffic earns switch residency
// through the rebalancer, and the promoted lock is then switch-processed.
func TestRebalanceTickPromotesHot(t *testing.T) {
	var log moveLog
	m := New(Config{Shards: 1, Servers: 1, OnRebalanceMove: log.add})
	defer m.Close()
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		g, err := m.Acquire(ctx, uint32(i%3)+1, Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
	if n := m.RebalanceTick(); n == 0 {
		t.Fatalf("no moves on a hot workload; stats %+v", m.RebalanceStats())
	}
	if m.Stats().SwitchResidentLocks == 0 {
		t.Fatal("no lock switch-resident after rebalance")
	}
	for _, mv := range log.snapshot() {
		if !mv.ToSwitch || mv.Err != nil {
			t.Fatalf("unexpected move %+v", mv)
		}
	}
	// A promoted lock is now granted by the data plane.
	pre := m.Stats().Switch.GrantsImmediate
	g, err := m.Acquire(ctx, 1, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	if m.Stats().Switch.GrantsImmediate != pre+1 {
		t.Fatal("promoted lock not switch-processed")
	}
	st := m.RebalanceStats()
	if st.Ticks == 0 || st.Promotions == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
}

// TestRebalanceRotationDemotesCooled: when the hot set rotates, the cooled
// residents are demoted and at least one newly hot lock promoted.
func TestRebalanceRotationDemotesCooled(t *testing.T) {
	var log moveLog
	m := New(Config{Shards: 1, Servers: 1, SwitchSlots: 32, OnRebalanceMove: log.add})
	defer m.Close()
	ctx := context.Background()
	drive := func(ids ...uint32) {
		for i := 0; i < 40; i++ {
			g, err := m.Acquire(ctx, ids[i%len(ids)], Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			g.Release()
		}
	}
	for i := 0; i < 3; i++ {
		drive(1, 2)
		m.RebalanceTick()
	}
	for i := 0; i < 10; i++ {
		drive(11, 12)
		m.RebalanceTick()
	}
	demoted := map[uint32]bool{}
	promoted := map[uint32]bool{}
	for _, mv := range log.snapshot() {
		if mv.Err != nil {
			continue
		}
		if mv.ToSwitch {
			promoted[mv.LockID] = true
		} else {
			demoted[mv.LockID] = true
		}
	}
	if !demoted[1] || !demoted[2] {
		t.Fatalf("cooled locks not demoted after rotation; moves %+v", log.snapshot())
	}
	if !promoted[11] && !promoted[12] {
		t.Fatalf("rotated-in hot set never promoted; moves %+v", log.snapshot())
	}
}

// TestRebalanceBackgroundLoop: the automatic loop promotes hot locks with
// no manual ticks.
func TestRebalanceBackgroundLoop(t *testing.T) {
	m := New(Config{Shards: 1, Servers: 1, RebalanceInterval: 2 * time.Millisecond})
	defer m.Close()
	ctx := context.Background()
	waitUntil(t, "the loop to promote a hot lock", func() bool {
		for i := 0; i < 10; i++ {
			g, err := m.Acquire(ctx, 1, Exclusive)
			if err != nil {
				t.Fatal(err)
			}
			g.Release()
		}
		return m.Stats().SwitchResidentLocks > 0
	})
	if st := m.RebalanceStats(); st.Promotions == 0 {
		t.Fatalf("loop stats show no promotions: %+v", st)
	}
}

// TestLiveMoveAcrossHeldLock: explicit promote and demote with a holder and
// a queued waiter — state crosses the boundary intact both directions, the
// reports name the crossing transactions, and the waiter's grant survives.
func TestLiveMoveAcrossHeldLock(t *testing.T) {
	m := New(Config{Shards: 1, Servers: 1})
	defer m.Close()
	ctx := context.Background()
	const lockID = 9

	holder, err := m.Acquire(ctx, lockID, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	waiterCh := make(chan *Grant, 1)
	go func() {
		g, err := m.Acquire(ctx, lockID, Exclusive)
		if err != nil {
			t.Error(err)
		}
		waiterCh <- g
	}()
	waitUntil(t, "waiter to queue at the server", func() bool {
		return m.Stats().Servers[0].Queued >= 1
	})

	mv, err := m.MoveToSwitch(lockID, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.Granted) != 1 || len(mv.Waiting) != 1 {
		t.Fatalf("promote report granted=%d waiting=%d, want 1/1", len(mv.Granted), len(mv.Waiting))
	}
	if mv.Granted[0] != holder.Txn() {
		t.Fatalf("promote report grants txn %d, holder is %d", mv.Granted[0], holder.Txn())
	}

	// Demote it back, still held, still waited on.
	mv, err = m.MoveToServer(lockID)
	if err != nil {
		t.Fatal(err)
	}
	if len(mv.Granted) != 1 || len(mv.Waiting) != 1 {
		t.Fatalf("demote report granted=%d waiting=%d, want 1/1", len(mv.Granted), len(mv.Waiting))
	}

	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter lost across the round trip")
	}
	g.Release()
}

// TestPreinstallMovesBusyQueue: preinstalling a lock that is held at its
// server, with a waiter queued behind the holder, moves the queue into the
// switch intact: the holder keeps the lock, and the switch grants the
// waiter when the holder releases.
func TestPreinstallMovesBusyQueue(t *testing.T) {
	m := New(Config{Shards: 1, Servers: 1})
	defer m.Close()
	ctx := context.Background()
	const lockID = 9

	holder, err := m.Acquire(ctx, lockID, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	waiterCh := make(chan *Grant, 1)
	go func() {
		g, err := m.Acquire(ctx, lockID, Exclusive)
		if err != nil {
			t.Error(err)
		}
		waiterCh <- g
	}()
	waitUntil(t, "waiter to queue at the server", func() bool {
		return m.Stats().Servers[0].Queued >= 1
	})

	if err := m.Preinstall(lockID, 8); err != nil {
		t.Fatalf("preinstall of a held lock with a waiter: %v", err)
	}
	st := m.Stats()
	if st.SwitchResidentLocks != 1 {
		t.Fatalf("%d switch-resident locks after preinstall, want 1", st.SwitchResidentLocks)
	}
	select {
	case <-waiterCh:
		t.Fatal("waiter granted while the holder still holds")
	default:
	}
	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter lost across the preinstall")
	}
	if got := m.Stats().Switch.GrantsQueued; got != st.Switch.GrantsQueued+1 {
		t.Fatalf("switch queued grants %d -> %d: the waiter was not granted by the switch",
			st.Switch.GrantsQueued, got)
	}
	g.Release()
}

// TestManagerDrainAndAddServer: embedded parity for the tier operations —
// drain a server mid-hold, refuse the redirect cycle, grow the tier.
func TestManagerDrainAndAddServer(t *testing.T) {
	m := New(Config{Shards: 1, Servers: 2})
	defer m.Close()
	ctx := context.Background()

	var lockID uint32
	for id := uint32(1); ; id++ {
		if lockserver.RSSCore(id, 2) == 0 {
			lockID = id
			break
		}
	}
	holder, err := m.Acquire(ctx, lockID, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	waiterCh := make(chan *Grant, 1)
	go func() {
		g, err := m.Acquire(ctx, lockID, Exclusive)
		if err != nil {
			t.Error(err)
		}
		waiterCh <- g
	}()
	waitUntil(t, "waiter to queue at the victim", func() bool {
		return m.Stats().Servers[0].Queued >= 1
	})

	if err := m.DrainServer(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.DrainServer(1, 0); err == nil {
		t.Fatal("redirect cycle was not refused")
	}
	holder.Release()
	g := <-waiterCh
	if g == nil {
		t.Fatal("waiter lost across the drain")
	}
	g.Release()

	idx, err := m.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("new server index %d, want 2", idx)
	}
	if got := len(m.Stats().Servers); got != 3 {
		t.Fatalf("stats report %d servers, want 3", got)
	}
	// Fresh traffic settles across the grown tier.
	for id := uint32(1); id <= 20; id++ {
		g, err := m.Acquire(ctx, id, Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
	}
}
