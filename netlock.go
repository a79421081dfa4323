// Package netlock is a fast, centralized lock manager modeled after
// "NetLock: Fast, Centralized Lock Management Using Programmable Switches"
// (SIGCOMM 2020).
//
// NetLock co-designs a programmable switch with a set of lock servers: the
// switch data plane grants and queues requests for the popular locks at
// line rate, lock servers handle the unpopular ones and buffer switch
// overflow, and a control loop moves locks between the two using an optimal
// knapsack allocation of the switch's limited queue memory. The design
// supports shared/exclusive locks with FCFS starvation-freedom, priorities
// (service differentiation), per-tenant quotas (performance isolation),
// leases for failure handling, and one-RTT transaction integration.
//
// This package is the embeddable, goroutine-safe front end. The switch data
// plane it drives is the faithful software model in internal/switchdp (the
// hardware being unavailable); the same logic runs under the discrete-event
// evaluation testbed (internal/cluster), over real UDP sockets
// (internal/transport, cmd/netlockd), and in-process here.
//
// Mirroring the paper's parallel switch pipelines, the embedded front end
// is sharded: lock IDs partition across independent shards, each owning its
// own data-plane model, lock servers, and mutex, so acquires and releases
// of different locks never contend. The steady-state acquire/release path
// is allocation-free (pooled grants, pooled waiter channels, reusable
// emit buffers).
//
// Basic use:
//
//	lm := netlock.New(netlock.Config{})
//	defer lm.Close()
//	g, err := lm.Acquire(ctx, 42, netlock.Exclusive)
//	if err != nil { ... }
//	defer g.Release()
package netlock

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netlock/internal/core"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/p4sim"
	"netlock/internal/rebalance"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Mode selects shared or exclusive locking.
type Mode int

// Lock modes.
const (
	// Shared locks may be held concurrently by many holders.
	Shared Mode = iota
	// Exclusive locks are held by exactly one holder.
	Exclusive
)

// String returns "shared" or "exclusive".
func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

func (m Mode) wire() wire.Mode {
	if m == Shared {
		return wire.Shared
	}
	return wire.Exclusive
}

// Config assembles an embedded NetLock instance.
type Config struct {
	// Shards partitions the lock ID space across this many independent
	// shards — the software analogue of the switch's parallel pipelines.
	// Each shard owns a disjoint slice of the switch register space, its
	// own lock servers, and its own mutex, so requests for locks in
	// different shards proceed in parallel. Default: GOMAXPROCS, clamped
	// to [1, 64]. Cross-shard operations (Close, Stats, FailSwitch)
	// briefly stop all shards.
	Shards int
	// Servers is the number of lock servers backing each shard (>= 1).
	// Default 2, as the paper's primary evaluation setup.
	Servers int
	// SwitchSlots is the shared-queue capacity in the switch data plane,
	// divided evenly across shards. Default 100_000, the prototype's size
	// (§5).
	SwitchSlots int
	// MaxSwitchLocks bounds the number of locks resident in the switch,
	// divided evenly across shards. Default 8192.
	MaxSwitchLocks int
	// Priorities enables service differentiation with this many priority
	// levels (1..8). Default 1 (plain FCFS).
	Priorities int
	// DefaultLease is the lease granted to holders; expired holders are
	// force-released by the background sweep. Zero disables leasing.
	DefaultLease time.Duration
	// SweepInterval is the lease-sweep period (default 10ms when leases
	// are enabled).
	SweepInterval time.Duration
	// Isolation enables per-tenant quotas (configure with SetTenantQuota).
	// The quota meter sits at ingress, before shard dispatch, exactly as
	// the ToR sees every request once regardless of which pipeline
	// processes it.
	Isolation bool
	// RebalanceInterval runs the online rebalancer at this period: each
	// tick folds the demand window into a smoothed model and executes up to
	// RebalanceBudget live moves per shard — queue state migrating intact,
	// no drain wait (internal/rebalance). Zero disables the automatic loop;
	// RebalanceTick can still be called manually.
	RebalanceInterval time.Duration
	// RebalanceBudget caps live moves per shard per rebalance tick
	// (default 4).
	RebalanceBudget int
	// OnRebalanceMove, when set, observes every live move the rebalance
	// loop attempts: its report and, for a failed move, the error (the
	// loop re-plans a failed move on the next tick). Called
	// synchronously from the tick; must not call back into RebalanceTick.
	OnRebalanceMove func(RebalanceMove, error)
	// Metrics enables the observability layer: per-stage latency
	// histograms (switch pass, server queue wait, end-to-end acquire) and
	// paper-aligned counters, striped per shard and read via
	// Manager.Metrics(). Off by default; disabled, the hot path pays one
	// predictable branch per layer. Enabled, the steady-state
	// acquire/release path stays allocation-free.
	Metrics bool
	// Tracer, when non-nil, receives per-event callbacks (packet-in,
	// switch pass, resubmit, overflow, grant, release, lease expiry,
	// failover) from every layer. Setting a Tracer implies Metrics.
	// Callbacks run inline on the hot path and must not block.
	Tracer obs.Tracer
	// ServerOverflowLimit, when positive, bounds each lock server's
	// per-(lock, priority) queue and overflow buffer; requests arriving at
	// a full buffer fail with ErrQueueOverflow. Zero keeps the paper's
	// default: server DRAM is plentiful, buffers are unbounded.
	ServerOverflowLimit int
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > 64 {
		c.Shards = 64
	}
	if c.Servers == 0 {
		c.Servers = 2
	}
	if c.SwitchSlots == 0 {
		c.SwitchSlots = 100_000
	}
	if c.MaxSwitchLocks == 0 {
		c.MaxSwitchLocks = 8192
	}
	if c.Priorities == 0 {
		c.Priorities = 1
	}
	if c.DefaultLease != 0 && c.SweepInterval == 0 {
		c.SweepInterval = 10 * time.Millisecond
	}
	return c
}

// Sentinel errors shared by every NetLock front end: the embedded Manager
// and the UDP transport.Client return the same values, so callers match with
// errors.Is regardless of which plane they run on.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("netlock: manager closed")
	// ErrQuotaExceeded is returned when the tenant's quota rejects the
	// request (isolation policy); callers should back off and retry.
	ErrQuotaExceeded = errors.New("netlock: tenant quota exceeded")
	// ErrTimeout is returned when an acquire's context deadline expires
	// before the grant arrives.
	ErrTimeout = errors.New("netlock: acquire timed out")
	// ErrQueueOverflow is returned when a bounded server buffer
	// (Config.ServerOverflowLimit) rejects the request; callers should
	// back off and retry.
	ErrQueueOverflow = errors.New("netlock: server queue overflow")
	// ErrNoCapacity is returned by Preinstall when the switch cannot host
	// the lock (lock table or queue memory exhausted).
	ErrNoCapacity = errors.New("netlock: no switch capacity")
)

// AcquireOptions are the per-acquisition parameters. Options pass the struct
// by value so applying them never forces a heap allocation on the request
// path. The struct is exported so other front ends (internal/transport)
// share the same option set; most callers use the With* options instead.
type AcquireOptions struct {
	// Tenant tags the request for quota enforcement (§4.4).
	Tenant uint8
	// Priority requests service at this priority (0 = highest).
	Priority uint8
	// Lease overrides the default lease duration (§4.5).
	Lease time.Duration
}

// AcquireOption customizes one acquisition.
type AcquireOption func(AcquireOptions) AcquireOptions

// ResolveAcquireOptions folds a list of options into the final parameter
// struct, shared by every front end.
func ResolveAcquireOptions(opts ...AcquireOption) AcquireOptions {
	var o AcquireOptions
	for _, f := range opts {
		o = f(o)
	}
	return o
}

// WithTenant tags the request with a tenant for quota enforcement.
func WithTenant(t uint8) AcquireOption {
	return func(o AcquireOptions) AcquireOptions { o.Tenant = t; return o }
}

// WithPriority requests service at the given priority (0 = highest).
func WithPriority(p uint8) AcquireOption {
	return func(o AcquireOptions) AcquireOptions { o.Priority = p; return o }
}

// WithLease overrides the default lease duration for this acquisition.
func WithLease(d time.Duration) AcquireOption {
	return func(o AcquireOptions) AcquireOptions { o.Lease = d; return o }
}

// Manager is an embedded NetLock instance: the switch data-plane model, the
// lock servers, and the control plane, fronted by a synchronous API.
// Manager is safe for concurrent use. Internally the lock ID space is
// partitioned across independent shards (see Config.Shards); requests for
// locks in different shards never contend.
type Manager struct {
	cfg    Config
	clock  func() int64
	shards []*shard
	// obs is the metrics registry, one stripe per shard; nil when
	// Config.Metrics is off and no Tracer is set.
	obs *obs.Registry

	closed  atomic.Bool
	nextTxn atomic.Uint64

	// Ingress quota metering (§4.4): a single meter before shard dispatch,
	// as the ToR sees every request once. Guarded by isoMu; only touched
	// when Isolation is on.
	isoMu   sync.Mutex
	meter   *p4sim.Meter
	rejects atomic.Uint64

	grantPool sync.Pool // *Grant
	chanPool  sync.Pool // chan wire.Header, capacity 1

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// shard is one partition of the embedded instance: a full switch-pipeline
// model plus lock servers for a disjoint slice of the lock ID space, under
// its own mutex. All fields are guarded by mu.
type shard struct {
	mu      sync.Mutex
	mgr     *core.Manager
	waiters map[waiterKey]chan wire.Header
	closed  bool
	// o is this shard's metrics stripe (nil when observability is off);
	// the front end records the end-to-end acquire stage on it, the
	// shard's switch and servers record theirs through core.Config.Obs.
	o *obs.Stripe

	// Reusable emit stacks for the settle loop. ProcessPacket reuses its
	// emit slice, so emits must be copied out before recursing; the stacks
	// grow once and are then reused, keeping the hot path allocation-free.
	swEmits  []switchdp.Emit
	srvEmits []lockserver.Emit

	// rebal is this shard's online rebalance loop (netlock_rebalance.go);
	// it holds its own mutex and takes sh.mu per mover call.
	rebal *rebalance.Loop
}

type waiterKey struct {
	lock uint32
	txn  uint64
}

// New builds a Manager. Background loops (lease sweep, rebalancer) start
// immediately when configured.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	m := &Manager{
		cfg:    cfg,
		clock:  clock,
		stopCh: make(chan struct{}),
	}
	m.grantPool.New = func() any { return new(Grant) }
	m.chanPool.New = func() any { return make(chan wire.Header, 1) }
	if cfg.Isolation {
		m.meter = p4sim.NewMeter("ingress-tenant-quota", 256)
	}
	if cfg.Metrics || cfg.Tracer != nil {
		m.obs = obs.New(obs.Config{Stripes: cfg.Shards, Tracer: cfg.Tracer})
	}
	// Partition the switch resources evenly: each shard models one
	// pipeline with its slice of the register space and lock table.
	perSlots := cfg.SwitchSlots / cfg.Shards
	if perSlots < cfg.Priorities {
		perSlots = cfg.Priorities
	}
	perLocks := cfg.MaxSwitchLocks / cfg.Shards
	if perLocks < 1 {
		perLocks = 1
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{waiters: make(map[waiterKey]chan wire.Header), o: m.obs.Stripe(i)}
		sh.mgr = core.New(core.Config{
			Switch: switchdp.Config{
				MaxLocks:       perLocks,
				TotalSlots:     perSlots,
				Priorities:     cfg.Priorities,
				DefaultLeaseNs: int64(cfg.DefaultLease),
				Now:            clock,
			},
			Servers: cfg.Servers,
			ServerConfig: lockserver.Config{
				MaxBuffer: cfg.ServerOverflowLimit,
			},
			Obs: sh.o,
		})
		m.shards = append(m.shards, sh)
	}
	if cfg.SweepInterval > 0 && cfg.DefaultLease > 0 {
		m.wg.Add(1)
		go m.sweepLoop()
	}
	m.initRebalance()
	if cfg.RebalanceInterval > 0 {
		m.wg.Add(1)
		go m.rebalanceLoop()
	}
	return m
}

// Shards returns the number of shards the lock ID space is partitioned
// into.
func (m *Manager) Shards() int { return len(m.shards) }

func (m *Manager) shardFor(lockID uint32) *shard {
	return m.shards[int(lockID%uint32(len(m.shards)))]
}

// lockAll is the stop-the-shards barrier: it acquires every shard mutex in
// shard order, giving cross-shard operations (Close, Stats, failure
// injection) a consistent cut of the whole instance's state.
func (m *Manager) lockAll() {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// Close stops the background loops. Outstanding Acquire calls return
// ErrClosed.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	close(m.stopCh)
	m.lockAll()
	for _, sh := range m.shards {
		sh.closed = true
		for k, ch := range sh.waiters {
			close(ch)
			delete(sh.waiters, k)
		}
	}
	m.unlockAll()
	m.wg.Wait()
}

// Grant states. A Grant cycles held -> released -> (pooled) -> held.
const (
	grantReleased uint32 = iota
	grantHeld
)

// Grant is a held lock.
type Grant struct {
	m        *Manager
	lockID   uint32
	txnID    uint64
	mode     Mode
	priority uint8
	// Expiry is the lease expiry instant on the manager clock (zero when
	// leasing is disabled).
	Expiry time.Duration
	state  atomic.Uint32
}

// LockID returns the granted lock's ID.
func (g *Grant) LockID() uint32 { return g.lockID }

// Mode returns the granted mode.
func (g *Grant) Mode() Mode { return g.mode }

// Txn returns the transaction ID the manager assigned to this
// acquisition. It is unique per grant until the Grant is released (the
// storage is pooled afterwards), which is what trace validation needs.
func (g *Grant) Txn() uint64 { return g.txnID }

// Release releases the lock. The first call wins; subsequent calls on the
// same Grant are no-ops. After Release returns, the Grant's storage is
// recycled for future acquisitions and must not be retained or inspected.
func (g *Grant) Release() {
	if !g.state.CompareAndSwap(grantHeld, grantReleased) {
		return
	}
	m := g.m
	h := wire.Header{
		Op:       wire.OpRelease,
		Mode:     g.mode.wire(),
		LockID:   g.lockID,
		TxnID:    g.txnID,
		Priority: g.priority,
		ClientIP: localClientIP,
	}
	sh := m.shardFor(g.lockID)
	sh.mu.Lock()
	if !sh.closed {
		sh.inject(&h)
	}
	sh.mu.Unlock()
	m.grantPool.Put(g)
}

var localClientIP = netip.AddrFrom4([4]byte{127, 0, 0, 1})

// Acquire blocks until the lock is granted, the context is cancelled, or
// the manager closes. The returned Grant must be released.
//
// Failures match the shared sentinels with errors.Is: ErrClosed,
// ErrQuotaExceeded, ErrQueueOverflow, and — when the context's deadline
// expired — ErrTimeout (alongside context.DeadlineExceeded).
func (m *Manager) Acquire(ctx context.Context, lockID uint32, mode Mode, opts ...AcquireOption) (*Grant, error) {
	o := ResolveAcquireOptions(opts...)
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if m.cfg.Isolation {
		m.isoMu.Lock()
		ok := m.meter.Conforming(int(o.Tenant), m.clock())
		m.isoMu.Unlock()
		if !ok {
			m.rejects.Add(1)
			return nil, ErrQuotaExceeded
		}
	}
	txn := m.nextTxn.Add(1)
	h := wire.Header{
		Op:       wire.OpAcquire,
		Mode:     mode.wire(),
		LockID:   lockID,
		TxnID:    txn,
		ClientIP: localClientIP,
		TenantID: o.Tenant,
		Priority: o.Priority,
		LeaseNs:  int64(o.Lease),
	}
	ch := m.chanPool.Get().(chan wire.Header)
	key := waiterKey{lockID, txn}
	sh := m.shardFor(lockID)
	var start time.Time
	if sh.o.Enabled() {
		start = obs.Now()
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		m.chanPool.Put(ch)
		return nil, ErrClosed
	}
	sh.waiters[key] = ch
	sh.inject(&h)
	sh.mu.Unlock()

	select {
	case g, ok := <-ch:
		if !ok {
			// Close closed the channel; it must not be pooled.
			return nil, ErrClosed
		}
		m.chanPool.Put(ch)
		if g.Op == wire.OpReject {
			if g.Flags&wire.FlagOverflow != 0 {
				return nil, ErrQueueOverflow
			}
			return nil, ErrQuotaExceeded
		}
		if sh.o.Enabled() {
			sh.o.Observe(obs.StageAcquireE2E, obs.Since(start))
		}
		gr := m.grantPool.Get().(*Grant)
		gr.m = m
		gr.lockID = lockID
		gr.txnID = txn
		gr.mode = mode
		gr.priority = o.Priority
		gr.Expiry = time.Duration(g.LeaseNs)
		gr.state.Store(grantHeld)
		return gr, nil
	case <-ctx.Done():
		sh.mu.Lock()
		_, present := sh.waiters[key]
		delete(sh.waiters, key)
		sh.mu.Unlock()
		if present {
			// Nobody can send on ch anymore; it is empty and reusable.
			m.chanPool.Put(ch)
		} else {
			// The grant raced in (buffered) or Close closed the channel.
			select {
			case _, ok := <-ch:
				if ok {
					m.chanPool.Put(ch)
				}
			default:
				m.chanPool.Put(ch)
			}
		}
		// The request may still be queued or granted inside the data
		// plane; the lease sweep reclaims it. A context with no deadline
		// and no lease would leak the slot, so surface that in the error.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("netlock: acquire lock %d: %w (%w)", lockID, ErrTimeout, ctx.Err())
		}
		return nil, fmt.Errorf("netlock: acquire lock %d: %w", lockID, ctx.Err())
	}
}

// Preinstall makes a lock switch-resident ahead of traffic (warmup), with
// the given shared-queue slot count (rounded up to one slot per priority
// bank). It fails with ErrNoCapacity when the switch's lock table or queue
// memory cannot host the lock. Already-resident locks are a no-op; a lock
// with requests queued at its server moves with its queue intact. The
// rebalancer may later demote preinstalled locks that see no traffic.
func (m *Manager) Preinstall(lockID uint32, slots int) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if slots < 0 {
		return fmt.Errorf("netlock: preinstall lock %d: negative slot count", lockID)
	}
	sh := m.shardFor(lockID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if err := sh.mgr.PreinstallLock(lockID, uint64(slots)); err != nil {
		if errors.Is(err, core.ErrNoCapacity) {
			return fmt.Errorf("netlock: preinstall lock %d: %w", lockID, ErrNoCapacity)
		}
		return fmt.Errorf("netlock: preinstall lock %d: %w", lockID, err)
	}
	return nil
}

// inject routes a packet through the shard's switch (and onward to servers)
// until all resulting deliveries settle. Caller holds sh.mu. The emit stack
// is reused across calls; recursion (server pushes re-entering the switch)
// appends above the caller's frame and truncates back.
func (sh *shard) inject(h *wire.Header) {
	emits, _ := sh.mgr.Switch().ProcessPacket(h)
	base := len(sh.swEmits)
	sh.swEmits = append(sh.swEmits, emits...)
	for i := 0; i < len(emits); i++ {
		sh.routeSwitchEmit(sh.swEmits[base+i])
	}
	sh.swEmits = sh.swEmits[:base]
}

func (sh *shard) routeSwitchEmit(e switchdp.Emit) {
	switch e.Action {
	case switchdp.ActGrant, switchdp.ActFetch:
		sh.deliverGrant(e.Hdr)
	case switchdp.ActReject:
		sh.deliverGrant(e.Hdr) // waiter inspects Op
	case switchdp.ActForward, switchdp.ActForwardOverflow, switchdp.ActPushNotify:
		srv := sh.mgr.Server(sh.mgr.ServerFor(e.Hdr.LockID))
		h := e.Hdr
		sh.routeServerEmits(srv.ProcessPacket(&h))
	}
}

// routeServerEmits copies the server's reusable emit slice onto the shard's
// stack and routes each entry. Caller holds sh.mu.
func (sh *shard) routeServerEmits(emits []lockserver.Emit) {
	base := len(sh.srvEmits)
	sh.srvEmits = append(sh.srvEmits, emits...)
	for i := 0; i < len(emits); i++ {
		sh.routeServerEmit(sh.srvEmits[base+i])
	}
	sh.srvEmits = sh.srvEmits[:base]
}

func (sh *shard) routeServerEmit(e lockserver.Emit) {
	switch e.Action {
	case lockserver.ActGrant, lockserver.ActFetch:
		sh.deliverGrant(e.Hdr)
	case lockserver.ActReject:
		sh.deliverGrant(e.Hdr) // waiter inspects Op and FlagOverflow
	case lockserver.ActPush:
		h := e.Hdr
		sh.inject(&h)
	}
}

// deliverGrant completes a waiting Acquire. Caller holds sh.mu.
func (sh *shard) deliverGrant(h wire.Header) {
	key := waiterKey{h.LockID, h.TxnID}
	ch, ok := sh.waiters[key]
	if !ok {
		return // cancelled or duplicate; the lease sweep reclaims the slot
	}
	delete(sh.waiters, key)
	ch <- h
}

// SetTenantQuota configures tenant t's request quota: a sustained rate per
// second and a burst allowance (performance isolation, §4.4). Requires
// Config.Isolation.
func (m *Manager) SetTenantQuota(t uint8, perSec float64, burst float64) {
	if m.meter == nil {
		return
	}
	m.isoMu.Lock()
	defer m.isoMu.Unlock()
	m.meter.CtrlSetRate(int(t), perSec, burst)
}

// Stats is a snapshot of processing counters across the instance.
type Stats struct {
	// Switch aggregates the data-plane counters across all shard
	// pipelines (ingress quota rejects included).
	Switch switchdp.Stats
	// Servers aggregates per logical server index: Servers[i] sums the
	// counters of server i across all shards.
	Servers []lockserver.Stats
	// SwitchResidentLocks is the number of locks currently placed in the
	// switch (all shards).
	SwitchResidentLocks int
	// SwitchFreeSlots is the unallocated shared-queue capacity (all
	// shards).
	SwitchFreeSlots uint64
}

func addSwitchStats(dst *switchdp.Stats, s switchdp.Stats) {
	dst.Acquires += s.Acquires
	dst.Releases += s.Releases
	dst.Pushes += s.Pushes
	dst.GrantsImmediate += s.GrantsImmediate
	dst.GrantsQueued += s.GrantsQueued
	dst.Queued += s.Queued
	dst.Forwards += s.Forwards
	dst.Overflows += s.Overflows
	dst.Rejects += s.Rejects
	dst.PushNotifies += s.PushNotifies
	dst.ExpiredReleases += s.ExpiredReleases
}

func addServerStats(dst *lockserver.Stats, s lockserver.Stats) {
	dst.Acquires += s.Acquires
	dst.Releases += s.Releases
	dst.GrantsImmediate += s.GrantsImmediate
	dst.GrantsQueued += s.GrantsQueued
	dst.Queued += s.Queued
	dst.Buffered += s.Buffered
	dst.Bounced += s.Bounced
	dst.Pushed += s.Pushed
	dst.OvfClears += s.OvfClears
	dst.ExpiredReleases += s.ExpiredReleases
	dst.Rejected += s.Rejected
	dst.ForwardedToSwitch += s.ForwardedToSwitch
}

// Stats returns a snapshot of the instance's counters, aggregated across
// shards under the stop-the-shards barrier (a consistent cut).
func (m *Manager) Stats() Stats {
	var st Stats
	m.lockAll()
	// Sized under the barrier: AddServer mutates the server count while
	// holding all shard mutexes.
	st.Servers = make([]lockserver.Stats, m.cfg.Servers)
	for _, sh := range m.shards {
		addSwitchStats(&st.Switch, sh.mgr.Switch().Stats())
		st.SwitchResidentLocks += len(sh.mgr.Switch().CtrlResidentLocks())
		st.SwitchFreeSlots += sh.mgr.FreeSlots()
		for i := 0; i < sh.mgr.NumServers(); i++ {
			addServerStats(&st.Servers[i], sh.mgr.Server(i).Stats())
		}
	}
	m.unlockAll()
	st.Switch.Rejects += m.rejects.Load()
	return st
}

// Metrics returns a merged snapshot of the observability layer: per-stage
// latency histograms, paper-aligned counters, per-tenant grant counts, and
// control-plane gauges (slots in use, resident locks, free capacity).
// Unlike Stats, reading metrics never stops the shards — counters and
// histograms are collected lock-free; only the gauges briefly take each
// shard's mutex in turn. With Config.Metrics off, the snapshot contains the
// gauges and zeros elsewhere.
func (m *Manager) Metrics() *obs.Snapshot {
	sn := m.obs.Snapshot()
	var slotsInUse, freeSlots uint64
	var resident int
	for _, sh := range m.shards {
		sh.mu.Lock()
		if !sh.closed {
			slotsInUse += sh.mgr.Switch().CtrlSlotsInUse()
			resident += len(sh.mgr.Switch().CtrlResidentLocks())
			freeSlots += sh.mgr.FreeSlots()
		}
		sh.mu.Unlock()
	}
	sn.Counters[obs.CtrRejects] += m.rejects.Load() // ingress quota rejects
	sn.AddGauge("switch_slots_in_use", "Shared-queue slots currently occupied across all shards.", float64(slotsInUse))
	sn.AddGauge("switch_resident_locks", "Locks currently resident in the switch data plane.", float64(resident))
	sn.AddGauge("switch_free_slots", "Unallocated shared-queue capacity.", float64(freeSlots))
	return sn
}

// FailSwitch simulates a switch failure: all data-plane state is lost and
// held locks are only reclaimed by lease expiry. Every shard pipeline fails
// together — the ToR is a single box. Exposed for failure testing (the
// paper's §6.5 experiment; see examples/failover).
func (m *Manager) FailSwitch() {
	m.lockAll()
	for _, sh := range m.shards {
		sh.mgr.FailSwitch()
	}
	m.unlockAll()
}

// FailServer simulates a lock-server failure (§4.5): on every shard, the
// locks owned by server index failed are adopted (with empty queues) by
// server index replacement; clients resubmit and leases expire any stale
// grants. Exposed for failure testing alongside FailSwitch. An
// out-of-range index, failed == replacement, or a replacement that
// redirects back to failed is refused with an error and changes nothing:
// every shard holds the same directory, so the first shard refuses before
// any shard has moved a lock.
func (m *Manager) FailServer(failed, replacement int) error {
	m.lockAll()
	defer m.unlockAll()
	for _, sh := range m.shards {
		if err := sh.mgr.FailServer(failed, replacement); err != nil {
			return fmt.Errorf("netlock: %w", err)
		}
	}
	return nil
}

// RestartSwitch reactivates a failed switch: the control plane reinstalls
// the lock table with empty queues on every shard.
func (m *Manager) RestartSwitch() {
	m.lockAll()
	for _, sh := range m.shards {
		sh.mgr.RestartSwitch()
	}
	m.unlockAll()
}

// SwitchFailed reports whether the switch is in the failed state.
func (m *Manager) SwitchFailed() bool {
	m.lockAll()
	failed := m.shards[0].mgr.SwitchFailed()
	m.unlockAll()
	return failed
}

func (m *Manager) sweepLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			for _, sh := range m.shards {
				sh.mu.Lock()
				if !sh.closed {
					rels, emits := sh.mgr.SweepLeases(m.clock())
					for i := range rels {
						sh.inject(&rels[i])
					}
					sh.routeServerEmits(emits)
					for _, h := range sh.mgr.SweepStranded() {
						srv := sh.mgr.Server(sh.mgr.ServerFor(h.LockID))
						hh := h
						sh.routeServerEmits(srv.ProcessPacket(&hh))
					}
				}
				sh.mu.Unlock()
			}
		}
	}
}
