package netlock

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"netlock/internal/check"
)

// blockingAdapter maps the public Acquire/Release API onto the concurrent
// chaos driver's BlockingSystem surface.
type blockingAdapter struct{ m *Manager }

func (a blockingAdapter) Acquire(lock uint32, excl bool, prio uint8) (func(), error) {
	mode := Shared
	if excl {
		mode = Exclusive
	}
	g, err := a.m.Acquire(context.Background(), lock, mode, WithPriority(prio))
	if err != nil {
		return nil, err
	}
	return g.Release, nil
}

// TestConcurrentChaosShardedManager runs the reconstructed-trace
// mutual-exclusion check against the sharded manager from many client
// goroutines: single shard, multiple shards, and multiple shards with
// priorities. Replay a failure with the printed -netlock.seed flag.
func TestConcurrentChaosShardedManager(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"1shard", Config{Shards: 1, Servers: 2}},
		{"4shard", Config{Shards: 4, Servers: 2}},
		{"4shard-prio", Config{Shards: 4, Servers: 2, Priorities: 4}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range check.SeedsN(3) {
				lm := New(tc.cfg)
				ccfg := check.DefaultConcurrentCfg()
				if tc.cfg.Priorities > 1 {
					ccfg.Priorities = tc.cfg.Priorities
				}
				check.RunConcurrent(t, blockingAdapter{lm}, ccfg, seed)
				lm.Close()
			}
		})
	}
}

// TestConcurrentChaosWithControlLoops runs the same check while the
// background lease sweep and rebalancer tick underneath the traffic, so
// live lock moves between switch and servers happen mid-stream. The lease
// is long enough that no hold expires while its observer still counts it.
func TestConcurrentChaosWithControlLoops(t *testing.T) {
	for _, seed := range check.SeedsN(2) {
		lm := New(Config{
			Shards:            4,
			Servers:           2,
			DefaultLease:      30 * time.Second,
			SweepInterval:     time.Millisecond,
			RebalanceInterval: time.Millisecond,
		})
		check.RunConcurrent(t, blockingAdapter{lm}, check.DefaultConcurrentCfg(), seed)
		lm.Close()
	}
}

// TestCloseDuringInflightAcquires closes the manager while acquirers on
// every shard are blocked behind held locks; all of them must return
// ErrClosed, and releases arriving after Close must be harmless no-ops.
func TestCloseDuringInflightAcquires(t *testing.T) {
	lm := New(Config{Shards: 4, Servers: 2})
	ctx := context.Background()

	// One holder per shard, then two blocked waiters behind each.
	const locks = 4
	holders := make([]*Grant, 0, locks)
	for l := uint32(1); l <= locks; l++ {
		g, err := lm.Acquire(ctx, l, Exclusive)
		if err != nil {
			t.Fatal(err)
		}
		holders = append(holders, g)
	}
	errCh := make(chan error, locks*2)
	for l := uint32(1); l <= locks; l++ {
		for w := 0; w < 2; w++ {
			go func(l uint32) {
				_, err := lm.Acquire(ctx, l, Exclusive)
				errCh <- err
			}(l)
		}
	}
	// Let the waiters queue up inside the data plane (switch or server,
	// depending on where each lock is resident).
	queued := func() uint64 {
		st := lm.Stats()
		n := st.Switch.Queued
		for _, s := range st.Servers {
			n += s.Queued
		}
		return n
	}
	deadline := time.After(2 * time.Second)
	for queued() < locks*2 {
		select {
		case <-deadline:
			t.Fatalf("waiters did not queue (queued=%d)", queued())
		case <-time.After(time.Millisecond):
		}
	}

	lm.Close()
	for i := 0; i < locks*2; i++ {
		if err := <-errCh; !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter %d: got %v, want ErrClosed", i, err)
		}
	}
	// Held grants released after Close must not panic or deadlock.
	for _, g := range holders {
		g.Release()
	}
	if _, err := lm.Acquire(ctx, 1, Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: got %v, want ErrClosed", err)
	}
}

// TestRebalanceTickDuringInflightAcquires hammers RebalanceTick from one
// goroutine while clients acquire and release across every shard, their
// hot set rotating so locks are promoted and demoted mid-stream: a live
// move must never strand a blocked acquirer or break exclusivity.
func TestRebalanceTickDuringInflightAcquires(t *testing.T) {
	lm := New(Config{Shards: 4, Servers: 2, SwitchSlots: 64})
	defer lm.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				lm.RebalanceTick()
			}
		}
	}()

	const clients, rounds, hot = 6, 600, 8
	var holders [3 * hot]atomic.Int32
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := 0; i < rounds; i++ {
				lock := uint32(i/(rounds/3)*hot + (i+c)%hot)
				g, err := lm.Acquire(ctx, lock+1, Exclusive)
				if err != nil {
					errCh <- fmt.Errorf("client %d acquire lock %d: %w", c, lock+1, err)
					return
				}
				if n := holders[lock].Add(1); n != 1 {
					errCh <- fmt.Errorf("lock %d held by %d clients at once", lock+1, n)
					return
				}
				holders[lock].Add(-1)
				g.Release()
			}
			errCh <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-tickerDone
	if st := lm.RebalanceStats(); st.Promotions == 0 {
		t.Fatalf("no live move raced the traffic: %+v", st)
	} else {
		t.Logf("rebalance stats: %+v", st)
	}
}
