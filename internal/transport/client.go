package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netlock"
	"netlock/internal/obs"
	"netlock/internal/wire"
)

// Client acquires and releases locks against a NetLock switch over UDP,
// multiplexing any number of in-flight operations over one socket. Client
// is safe for concurrent use.
//
// Outgoing ops accumulate into batch frames (up to wire.MaxBatchOps per
// datagram) and leave when the frame is full, or as soon as the submitting
// goroutine yields: the op that opens a frame wakes the client's flusher,
// which the scheduler runs once the submitter blocks, so everything one
// burst produced shares a datagram and no op waits on a timer. Completions
// arrive on the shared read loop, which matches them to in-flight ops by
// txn and checks the lock.
//
// Loss handling is end to end: unanswered acquires and un-acked releases
// are retransmitted every RetryInterval (the switch deduplicates), ctx
// deadlines are enforced by the same sweep, and grants that arrive for an
// op the caller abandoned are released automatically so the lock is not
// stranded until lease expiry.
//
// Against a replicated switch chain the client is given every member's
// address. Ops go to the current head; when the control plane reconfigures
// the chain, the promoted head announces the new epoch (wire.OpEpoch) and
// the client re-targets and immediately retransmits everything
// outstanding. If the head dies before any announcement arrives, the sweep
// rotates through the remaining addresses until one redirects or answers.
//
// In fabric mode (ClientConfig.Fabric) the client spans several racks,
// each its own chain: every op routes by its lock's shard through the
// epoch-versioned shard map to the owning rack, with one egress batch
// stream per rack multiplexed over the shared socket. A rack that no
// longer owns a shard bounces the op with wire.OpWrongRack plus its full
// map; the client adopts the newer epoch and re-routes everything
// outstanding. The batched hot path is unchanged — single-rack mode is
// just a one-rack fabric with no map.
type Client struct {
	conn      PacketConn
	localIP   netip.Addr
	localPort uint16
	o         *obs.Stripe

	retryEvery time.Duration
	onFailover func(epoch uint64, head string)

	mu sync.Mutex
	// racks holds per-rack routing state: chain member addresses, the
	// current head, the newest epoch seen, silence clocks, and the open
	// egress batch frame. Outside a fabric there is exactly one rack.
	racks []clientRack
	// addrRack maps every known switch address to its rack index, so
	// ingress datagrams are attributed to the rack that sent them.
	addrRack map[netip.AddrPort]int
	// smap is the client's copy of the fabric shard map; nil outside a
	// fabric. Refreshed from the map frames that ride along OpWrongRack
	// bounces.
	smap *wire.ShardMap
	// failovers stages OnFailover notifications; the read loop delivers
	// them outside the lock.
	failovers []failoverEvent
	nextTxn   uint64
	// tick counts retry sweeps; ops record it as their last send.
	tick uint64
	// The in-flight tables are keyed by txn (unique per client); an ingress
	// op matches an entry only if its lock does too.
	acquires map[uint64]*AsyncAcquire
	releases map[uint64]*Grant
	// grants holds delivered, unreleased grants so a duplicated grant
	// datagram is distinguishable from a grant for an abandoned op.
	grants map[uint64]*Grant
	// rackOut is sweep scratch: per-rack outstanding-op counts.
	rackOut []int
	// kick wakes flushLoop. No lost wake-up: while any rack frame is
	// non-empty, a kick is pending or the flusher is about to take c.mu.
	// Every frame's 0→1 transition happens under c.mu and sends a kick; a
	// kick that lands after its frame already left costs one spare wake-up.
	kick chan struct{}

	acqPool   sync.Pool
	grantPool sync.Pool

	wg     sync.WaitGroup
	closed chan struct{}
}

// clientRack is one rack's routing state inside a Client: the chain
// member addresses (cur indexes the head, as far as this client knows),
// the newest chain epoch seen from the rack, the rack's silence clocks,
// and its open egress batch frame with the time its first op arrived
// (read only when obs is on).
type clientRack struct {
	targets  []netip.AddrPort
	cur      int
	epoch    uint64
	lastRx   time.Time
	lastMove time.Time
	bw       wire.BatchWriter
	bstore   []byte
	openedAt time.Time
}

// failoverEvent is one staged OnFailover notification.
type failoverEvent struct {
	epoch uint64
	head  string
}

// ClientConfig configures a Client.
type ClientConfig struct {
	// Switches are the addresses of every member of a replicated switch
	// chain, head first (one address for an unreplicated switch). Ops go
	// to the head; the remaining addresses are failover candidates.
	Switches []string
	// Fabric configures multi-rack routing; nil means a single rack.
	// Takes precedence over Switches when set.
	Fabric *FabricClientConfig
	// OnFailover, if set, is invoked (from the client's internal
	// goroutines — it must not block) whenever the client re-targets to a
	// new head after an epoch announcement.
	OnFailover func(epoch uint64, head string)
	// Net is the socket factory; nil means real UDP.
	Net Network
	// RetryInterval is the resend cadence for unanswered acquires and
	// un-acked releases. Default 200ms.
	RetryInterval time.Duration
	// Obs records frame/op counters and the egress batch-size histogram.
	Obs *obs.Stripe
}

// FabricClientConfig configures a Client for a multi-rack fabric: ops
// route per lock through the shard map to the owning rack's chain.
type FabricClientConfig struct {
	// Racks lists every rack's chain member addresses, head first,
	// indexed by the shard map's rack numbers.
	Racks [][]string
	// Map is the starting shard map (from the fabric controller). The
	// client keeps its own copy and refreshes it from OpWrongRack
	// bounces, so a stale starting map only costs one extra round trip.
	Map *wire.ShardMap
}

// NewClient creates a client socket pointed at the switch, with default
// batching. See NewClientConfig to tune.
func NewClient(switchAddr string) (*Client, error) {
	return NewClientConfig(ClientConfig{Switches: []string{switchAddr}})
}

// NewClientConfig creates a client from an explicit configuration.
func NewClientConfig(cfg ClientConfig) (*Client, error) {
	var rackAddrs [][]string
	var smap *wire.ShardMap
	if cfg.Fabric != nil {
		if len(cfg.Fabric.Racks) == 0 {
			return nil, errors.New("transport: fabric config has no racks")
		}
		if cfg.Fabric.Map == nil {
			return nil, errors.New("transport: fabric config has no shard map")
		}
		if cfg.Fabric.Map.Racks > len(cfg.Fabric.Racks) {
			return nil, fmt.Errorf("transport: shard map spans %d racks, %d configured",
				cfg.Fabric.Map.Racks, len(cfg.Fabric.Racks))
		}
		rackAddrs = cfg.Fabric.Racks
		smap = cfg.Fabric.Map.Clone()
	} else {
		rackAddrs = [][]string{cfg.Switches}
	}
	racks := make([]clientRack, len(rackAddrs))
	addrRack := make(map[netip.AddrPort]int)
	for i, addrs := range rackAddrs {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("transport: rack %d has no switch addresses", i)
		}
		for _, a := range addrs {
			ap, err := resolveAddrPort(a)
			if err != nil {
				return nil, fmt.Errorf("transport: resolve switch addr: %w", err)
			}
			racks[i].targets = append(racks[i].targets, ap)
			addrRack[ap] = i
		}
	}
	nw := cfg.Net
	if nw == nil {
		nw = UDP
	}
	conn, err := nw.Listen(net.JoinHostPort(racks[0].targets[0].Addr().String(), "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: client socket: %w", err)
	}
	retry := cfg.RetryInterval
	if retry <= 0 {
		retry = 200 * time.Millisecond
	}
	c := &Client{
		conn:       conn,
		racks:      racks,
		addrRack:   addrRack,
		smap:       smap,
		o:          cfg.Obs,
		retryEvery: retry,
		onFailover: cfg.OnFailover,
		rackOut:    make([]int, len(racks)),
		acquires:   make(map[uint64]*AsyncAcquire),
		releases:   make(map[uint64]*Grant),
		grants:     make(map[uint64]*Grant),
		kick:       make(chan struct{}, 1),
		closed:     make(chan struct{}),
	}
	c.acqPool.New = func() any { return &AsyncAcquire{ch: make(chan struct{}, 1)} }
	c.grantPool.New = func() any { return &Grant{ackCh: make(chan struct{}, 1)} }
	now := time.Now()
	for i := range c.racks {
		c.racks[i].lastRx = now
		c.racks[i].bw.Reset(nil)
	}
	if ua, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		if a, ok2 := netip.AddrFromSlice(ua.IP); ok2 {
			c.localIP = a.Unmap()
		}
		c.localPort = ua.AddrPort().Port()
	}
	// Transaction IDs identify a request end to end: grants for queued
	// requests are routed back by (lock, txn). Clients draw from disjoint
	// random ranges so concurrent clients cannot collide.
	c.nextTxn = rand.Uint64() >> 1
	c.wg.Add(1)
	go c.readLoop()
	c.wg.Add(1)
	go c.sweepLoop()
	c.wg.Add(1)
	go c.flushLoop()
	return c, nil
}

// ShardMapEpoch returns the epoch of the client's shard map (0 outside a
// fabric).
func (c *Client) ShardMapEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.smap == nil {
		return 0
	}
	return c.smap.Epoch
}

// Close stops the client; blocked Acquire and Wait calls fail with
// netlock.ErrClosed.
func (c *Client) Close() error {
	select {
	case <-c.closed:
		return nil
	default:
	}
	close(c.closed)
	err := c.conn.Close()
	c.wg.Wait()
	c.mu.Lock()
	var done []*AsyncAcquire
	for txn, a := range c.acquires {
		delete(c.acquires, txn)
		a.g = nil
		a.err = fmt.Errorf("transport: acquire lock %d: %w", a.LockID(), netlock.ErrClosed)
		done = append(done, a)
	}
	clear(c.releases)
	clear(c.grants)
	c.mu.Unlock()
	for _, a := range done {
		c.finishAcquire(a)
	}
	return err
}

// AsyncAcquire is one in-flight acquire. Exactly one completion consumer
// exists per handle: either the callback passed to AcquireFunc, or one
// Wait call. After Wait returns (or the callback fires) the handle is
// recycled and must not be touched again.
type AsyncAcquire struct {
	c        *Client
	key      opKey
	hdr      wire.Header
	ch       chan struct{}
	cb       func(*Grant, error)
	g        *Grant
	err      error
	deadline time.Time // zero = none; enforced by the sweep
	lastSend uint64    // sweep tick; guarded by c.mu
}

// Txn returns the transaction ID identifying this acquire on the wire.
// Valid until the handle completes.
func (a *AsyncAcquire) Txn() uint64 { return a.key.txn }

// LockID returns the lock this acquire addresses.
func (a *AsyncAcquire) LockID() uint32 { return uint32(a.key.lock) }

// Wait blocks until the acquire completes, ctx is done, or the client
// closes. It must be called exactly once per handle obtained from
// AcquireAsync. Abandoning a granted acquire (ctx won the race) releases
// the grant automatically.
func (a *AsyncAcquire) Wait(ctx context.Context) (*Grant, error) {
	c := a.c
	select {
	case <-a.ch:
		g, err := a.g, a.err
		c.recycleAcquire(a)
		return g, err
	case <-ctx.Done():
		return c.abandon(a, ctx.Err())
	case <-c.closed:
		return c.abandon(a, nil)
	}
}

// abandon resolves a Wait that lost the race to ctx or Close. cause is the
// ctx error, or nil for client close.
func (c *Client) abandon(a *AsyncAcquire, cause error) (*Grant, error) {
	lockID := a.LockID()
	c.mu.Lock()
	_, pending := c.acquires[a.key.txn]
	if pending {
		delete(c.acquires, a.key.txn)
	}
	c.mu.Unlock()
	if !pending {
		// Completed concurrently: the completion token is in flight.
		// Take it; if the op was granted, give the lock back.
		<-a.ch
		if a.g != nil {
			a.g.Release()
		}
	}
	c.recycleAcquire(a)
	switch {
	case cause == nil:
		return nil, fmt.Errorf("transport: acquire lock %d: %w", lockID, netlock.ErrClosed)
	case errors.Is(cause, context.DeadlineExceeded):
		return nil, fmt.Errorf("transport: acquire lock %d: %w (%w)", lockID, netlock.ErrTimeout, cause)
	default:
		return nil, fmt.Errorf("transport: acquire lock %d: %w", lockID, cause)
	}
}

// AcquireAsync submits an acquire and returns immediately with a handle;
// call Wait (exactly once) for the result. ctx's deadline, if any, bounds
// the acquire even if Wait is called later with a different context.
func (c *Client) AcquireAsync(ctx context.Context, lockID uint32, mode netlock.Mode, opts ...netlock.AcquireOption) (*AsyncAcquire, error) {
	return c.submit(ctx, lockID, mode, nil, opts)
}

// AcquireFunc submits an acquire whose completion invokes cb (from the
// client's internal goroutines — cb must not block) with the grant or
// error. Only ctx's deadline is honored for callback completions.
func (c *Client) AcquireFunc(ctx context.Context, lockID uint32, mode netlock.Mode, cb func(*Grant, error), opts ...netlock.AcquireOption) error {
	if cb == nil {
		return errors.New("transport: AcquireFunc requires a callback")
	}
	_, err := c.submit(ctx, lockID, mode, cb, opts)
	return err
}

// Acquire requests a lock and blocks until granted, the context is
// cancelled, or the client closes. Unanswered requests are retransmitted
// every RetryInterval. The option set (tenant, priority, lease) is shared
// with the embedded netlock.Manager, as are the failure sentinels: errors
// match netlock.ErrClosed, netlock.ErrQuotaExceeded,
// netlock.ErrQueueOverflow, and — when the context's deadline expired —
// netlock.ErrTimeout alongside context.DeadlineExceeded.
func (c *Client) Acquire(ctx context.Context, lockID uint32, mode netlock.Mode, opts ...netlock.AcquireOption) (*Grant, error) {
	a, err := c.AcquireAsync(ctx, lockID, mode, opts...)
	if err != nil {
		return nil, err
	}
	return a.Wait(ctx)
}

func (c *Client) submit(ctx context.Context, lockID uint32, mode netlock.Mode, cb func(*Grant, error), opts []netlock.AcquireOption) (*AsyncAcquire, error) {
	o := netlock.ResolveAcquireOptions(opts...)
	wm := wire.Shared
	if mode == netlock.Exclusive {
		wm = wire.Exclusive
	}
	a := c.acqPool.Get().(*AsyncAcquire)
	a.c = c
	a.cb = cb
	a.g = nil
	a.err = nil
	a.deadline, _ = ctx.Deadline()
	c.mu.Lock()
	select {
	case <-c.closed:
		// Checked under c.mu so this submit cannot slip past Close's
		// drain of the acquire table.
		c.mu.Unlock()
		c.recycleAcquire(a)
		return nil, fmt.Errorf("transport: acquire lock %d: %w", lockID, netlock.ErrClosed)
	default:
	}
	c.nextTxn++
	a.key = opKey{c.nextTxn, uint64(lockID)}
	a.lastSend = c.tick
	a.hdr = wire.Header{
		Op:         wire.OpAcquire,
		Mode:       wm,
		LockID:     lockID,
		TxnID:      a.key.txn,
		ClientIP:   c.localIP,
		ClientPort: c.localPort,
		TenantID:   o.Tenant,
		Priority:   o.Priority,
		LeaseNs:    int64(o.Lease),
	}
	c.acquires[a.key.txn] = a
	c.enqueueOp(&a.hdr)
	c.mu.Unlock()
	return a, nil
}

// Grant states. A Grant is single-use: once Release or ReleaseWait has
// been called, the handle must not be touched again (it is recycled when
// the end-to-end ack lands).
const (
	grantFree uint32 = iota
	grantHeld
	grantReleasing // fire-and-forget; the read loop recycles on ack
	grantWaited    // a ReleaseWait consumer takes the ack
)

// Grant is a lock held through a Client.
type Grant struct {
	c        *Client
	key      opKey
	hdr      wire.Header // acquire header; release/ack echo its fields
	rack     int         // rack that issued the grant; 0 outside a fabric
	state    atomic.Uint32
	ackCh    chan struct{}
	lastSend uint64 // sweep tick; guarded by c.mu
}

// LockID returns the granted lock.
func (g *Grant) LockID() uint32 { return uint32(g.key.lock) }

// Txn returns the transaction ID the grant was issued under.
func (g *Grant) Txn() uint64 { return g.key.txn }

// Rack returns the index of the rack that issued the grant (always 0
// outside a fabric). Valid until the grant handle is recycled.
func (g *Grant) Rack() int { return g.rack }

// Release releases the lock. It returns immediately; the client keeps
// retransmitting the release until the switch (or the owning lock server)
// acknowledges it, so the lock is not leaked if the first datagram drops.
func (g *Grant) Release() {
	if !g.state.CompareAndSwap(grantHeld, grantReleasing) {
		return
	}
	g.c.startRelease(g)
}

// ReleaseWait releases the lock and blocks until the release is
// acknowledged end to end, ctx is done, or the client closes. If ctx wins,
// the release keeps retransmitting in the background.
func (g *Grant) ReleaseWait(ctx context.Context) error {
	if !g.state.CompareAndSwap(grantHeld, grantWaited) {
		return nil // already released
	}
	c := g.c
	c.startRelease(g)
	select {
	case <-g.ackCh:
		c.recycleGrant(g)
		return nil
	case <-ctx.Done():
		// Hand ack consumption back to the read loop. If the ack raced
		// us and the token is already here, we still own the recycle.
		g.state.CompareAndSwap(grantWaited, grantReleasing)
		select {
		case <-g.ackCh:
			c.recycleGrant(g)
		default:
		}
		return ctx.Err()
	case <-c.closed:
		return fmt.Errorf("transport: release lock %d: %w", g.LockID(), netlock.ErrClosed)
	}
}

// startRelease moves g into the release-pending table and queues the first
// release datagram.
func (c *Client) startRelease(g *Grant) {
	c.mu.Lock()
	delete(c.grants, g.key.txn)
	c.releases[g.key.txn] = g
	g.lastSend = c.tick
	c.enqueueRelease(g)
	c.mu.Unlock()
}

// enqueueRelease queues one release datagram for g. Caller holds c.mu.
func (c *Client) enqueueRelease(g *Grant) {
	h := g.hdr
	h.Op = wire.OpRelease
	c.enqueueOp(&h)
}

// autoRelease gives back a grant that arrived for an op this client no
// longer tracks (cancelled, timed out, or already fully released): it
// fabricates a releasing Grant so the normal retry/ack machinery applies.
// Caller holds c.mu.
func (c *Client) autoRelease(h *wire.Header, key opKey) {
	g := c.grantPool.Get().(*Grant)
	g.c = c
	g.key = key
	g.hdr = *h
	g.hdr.Flags = 0 // grant flag bits must not leak into the release path
	g.state.Store(grantReleasing)
	g.lastSend = c.tick
	c.releases[key.txn] = g
	c.enqueueRelease(g)
}

// rackFor routes a lock to its rack under the client's shard map. Caller
// holds c.mu.
func (c *Client) rackFor(lockID uint32) int {
	if c.smap == nil {
		return 0
	}
	if r := c.smap.RackOf(lockID); r < len(c.racks) {
		return r
	}
	return 0
}

// enqueueOp appends one op to its rack's outgoing frame, writing the frame
// first if it is full, and kicks the flusher when the op opens a frame.
// Caller holds c.mu.
func (c *Client) enqueueOp(h *wire.Header) {
	rk := c.rackFor(h.LockID)
	r := &c.racks[rk]
	if !r.bw.Append(h) {
		c.flushRackLocked(rk)
		r.bw.Append(h)
	}
	if r.bw.Count() == 1 {
		if c.o != nil {
			r.openedAt = time.Now()
		}
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
}

// flushLocked writes every rack's open frame, if any. Caller holds c.mu.
func (c *Client) flushLocked() {
	for i := range c.racks {
		c.flushRackLocked(i)
	}
}

// flushRackLocked writes one rack's open frame, if any. Caller holds c.mu.
func (c *Client) flushRackLocked(rk int) {
	r := &c.racks[rk]
	n := r.bw.Count()
	frame := r.bw.Frame()
	if frame == nil {
		return
	}
	c.conn.WriteToUDPAddrPort(frame, r.targets[r.cur])
	if c.o != nil {
		c.o.Inc(obs.CtrFramesOut)
		c.o.Observe(obs.StageEgressBatch, int64(n))
		c.o.Observe(obs.StageClientFlushWait, int64(time.Since(r.openedAt)))
	}
	r.bstore = frame[:0]
	r.bw.Reset(r.bstore)
}

// flushLoop writes the open frames each time an op opens one. The kick
// readies it on the submitter's P, so it runs once the submitter blocks
// (a generator waiting on its channel, a blocking Acquire in Wait, the read
// loop back in ReadFrom); another idle P picks it up sooner. It then yields
// once: the kick put it in the run-next slot, ahead of the goroutines the
// read loop readied with the same burst of completions, and each of those
// adds its ops to the frame before the frame leaves. Without the yield, 128
// goroutines doing blocking Acquire/Release on one P sent 2 ops per frame
// instead of ~35.
func (c *Client) flushLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case <-c.kick:
		}
		runtime.Gosched()
		c.mu.Lock()
		c.flushLocked()
		c.mu.Unlock()
	}
}

// adoptEpoch processes one OpEpoch announcement from rack rk: TxnID
// carries the chain epoch, the client address fields the head. Newer
// epochs (and same-epoch redirects from non-head members) re-target the
// rack and trigger an immediate retransmit of everything outstanding
// toward it. rk < 0 means the datagram source was unknown; the announced
// head address then attributes the rack, or the announcement is dropped.
// Caller holds c.mu.
func (c *Client) adoptEpoch(h *wire.Header, rk int) {
	head := netip.AddrPortFrom(h.ClientIP.Unmap(), h.ClientPort)
	if !head.IsValid() {
		return
	}
	if rk < 0 {
		var ok bool
		if rk, ok = c.addrRack[head]; !ok {
			return
		}
	}
	r := &c.racks[rk]
	if h.TxnID < r.epoch {
		return // stale announcement from a demoted member
	}
	moved := c.retarget(rk, head)
	newer := h.TxnID > r.epoch
	r.epoch = h.TxnID
	if !moved && !newer {
		return
	}
	if moved {
		c.retransmitLocked(rk)
	}
	if c.onFailover != nil {
		c.failovers = append(c.failovers, failoverEvent{epoch: r.epoch, head: head.String()})
	}
}

// retarget points rack rk at head, learning the address if it was not in
// the configured set, and reports whether the destination changed. Caller
// holds c.mu.
func (c *Client) retarget(rk int, head netip.AddrPort) bool {
	r := &c.racks[rk]
	for i, t := range r.targets {
		if t == head {
			if i == r.cur {
				return false
			}
			r.cur = i
			r.lastMove = time.Now()
			return true
		}
	}
	r.targets = append(r.targets, head)
	c.addrRack[head] = rk
	r.cur = len(r.targets) - 1
	r.lastMove = time.Now()
	return true
}

// adoptMap installs a strictly newer shard map (learned from the frame a
// wrong-rack bounce carries) and re-routes everything outstanding under
// the new assignment. Caller holds c.mu.
func (c *Client) adoptMap(m *wire.ShardMap) {
	if c.smap == nil || m.Epoch <= c.smap.Epoch {
		return // single-rack clients ignore maps; older epochs are stale
	}
	c.smap = m.Clone()
	c.retransmitLocked(-1)
}

// retransmitLocked re-sends the outstanding acquires and releases routed
// to rack rk (every rack if rk < 0), resetting their retry clocks. Caller
// holds c.mu.
func (c *Client) retransmitLocked(rk int) {
	for _, a := range c.acquires {
		if rk < 0 || c.rackFor(a.LockID()) == rk {
			a.lastSend = c.tick
			c.enqueueOp(&a.hdr)
		}
	}
	for _, g := range c.releases {
		if rk < 0 || c.rackFor(g.LockID()) == rk {
			g.lastSend = c.tick
			c.enqueueRelease(g)
		}
	}
	c.flushLocked()
}

// rotateIfSilent is the sweep's failover backstop for the window between a
// head failing and its successor's epoch announcement (which the dead head
// obviously cannot deliver): for each rack with ops outstanding and
// nothing received for two retry intervals, try the rack's next known
// switch address. A live non-head member answers with a redirect; a live
// head answers the ops themselves. Caller holds c.mu.
func (c *Client) rotateIfSilent(now time.Time) {
	if len(c.acquires)+len(c.releases) == 0 {
		return
	}
	out := c.rackOut
	for i := range out {
		out[i] = 0
	}
	for _, a := range c.acquires {
		out[c.rackFor(a.LockID())]++
	}
	for _, g := range c.releases {
		out[c.rackFor(g.LockID())]++
	}
	quiet := 2 * c.retryEvery
	for rk := range c.racks {
		r := &c.racks[rk]
		if out[rk] == 0 || len(r.targets) < 2 {
			continue
		}
		if now.Sub(r.lastRx) < quiet || now.Sub(r.lastMove) < quiet {
			continue
		}
		r.cur = (r.cur + 1) % len(r.targets)
		r.lastMove = now
		c.retransmitLocked(rk)
	}
}

// sweepLoop enforces acquire deadlines and retransmits unanswered
// acquires and un-acked releases every RetryInterval. Its re-enqueues kick
// the flusher like any other op.
func (c *Client) sweepLoop() {
	defer c.wg.Done()
	// Ops are stamped with the sweep count, not the wall clock: one is
	// resent after ceil(RetryInterval/every) + 1 sweeps, between
	// RetryInterval and RetryInterval + every after its last send.
	every := max(c.retryEvery/4, time.Millisecond)
	retryTicks := uint64((c.retryEvery+every-1)/every) + 1
	t := time.NewTicker(every)
	defer t.Stop()
	var expired []*AsyncAcquire
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		now := time.Now()
		expired = expired[:0]
		c.mu.Lock()
		c.tick++
		for txn, a := range c.acquires {
			if !a.deadline.IsZero() && now.After(a.deadline) {
				delete(c.acquires, txn)
				a.g = nil
				a.err = fmt.Errorf("transport: acquire lock %d: %w (%w)",
					a.LockID(), netlock.ErrTimeout, context.DeadlineExceeded)
				expired = append(expired, a)
				continue
			}
			if c.tick-a.lastSend >= retryTicks {
				a.lastSend = c.tick
				c.enqueueOp(&a.hdr)
			}
		}
		for _, g := range c.releases {
			if c.tick-g.lastSend >= retryTicks {
				g.lastSend = c.tick
				c.enqueueRelease(g)
			}
		}
		c.rotateIfSilent(now)
		c.mu.Unlock()
		for _, a := range expired {
			c.finishAcquire(a)
		}
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, maxPacket)
	var h wire.Header
	var br wire.BatchReader
	var sm wire.ShardMap
	var doneAcq []*AsyncAcquire
	var doneRel []*Grant
	for {
		n, from, err := c.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
				continue
			}
		}
		data := buf[:n]
		doneAcq = doneAcq[:0]
		doneRel = doneRel[:0]
		c.mu.Lock()
		// Attribute the datagram to the rack that sent it; rk stays -1 for
		// unknown sources on a multi-rack client (handlers then fall back
		// to shard-map routing).
		rk := 0
		if len(c.racks) > 1 {
			var ok bool
			if rk, ok = c.addrRack[normAddrPort(from)]; !ok {
				rk = -1
			}
		}
		if rk >= 0 {
			c.racks[rk].lastRx = time.Now()
		}
		if wire.IsShardMap(data) {
			if sm.DecodeFromBytes(data) == nil {
				c.adoptMap(&sm)
			}
		} else if wire.IsBatch(data) && br.Reset(data) == nil {
			ops := 0
			for {
				ok, err2 := br.Next(&h)
				if err2 != nil || !ok {
					break
				}
				ops++
				doneAcq, doneRel = c.handleOp(&h, rk, doneAcq, doneRel)
			}
			if ops > 0 {
				c.o.Inc(obs.CtrFramesIn)
				c.o.Add(obs.CtrOpsIn, uint64(ops))
			}
		}
		var events []failoverEvent
		if len(c.failovers) > 0 {
			events = append(events, c.failovers...)
			c.failovers = c.failovers[:0]
		}
		c.mu.Unlock()
		// Deliver completions outside the lock: callbacks may submit new
		// ops (which take c.mu), and channel waiters resume immediately.
		for _, ev := range events {
			c.onFailover(ev.epoch, ev.head)
		}
		for _, a := range doneAcq {
			c.finishAcquire(a)
		}
		for _, g := range doneRel {
			c.finishRelease(g)
		}
	}
}

// handleOp matches one ingress op to its in-flight entry and stages the
// completion. rk is the rack the op arrived from (-1 when unattributed).
// Caller holds c.mu.
func (c *Client) handleOp(h *wire.Header, rk int, doneAcq []*AsyncAcquire, doneRel []*Grant) ([]*AsyncAcquire, []*Grant) {
	key := keyOf(h)
	switch h.Op {
	case wire.OpGrant, wire.OpFetch:
		a, ok := c.acquires[key.txn]
		if ok && a.key == key {
			delete(c.acquires, key.txn)
			g := c.grantPool.Get().(*Grant)
			g.c = c
			g.key = key
			g.hdr = a.hdr
			g.rack = rk
			if rk < 0 {
				g.rack = c.rackFor(h.LockID)
			}
			g.state.Store(grantHeld)
			c.grants[key.txn] = g
			a.g = g
			a.err = nil
			return append(doneAcq, a), doneRel
		}
		_, held := c.grants[key.txn]
		_, rel := c.releases[key.txn]
		if ok || held || rel {
			// A duplicated grant datagram, a duplicate whose release is
			// already in flight, or a txn tracked under another lock:
			// auto-releasing would overwrite the tracked op's entry.
			return doneAcq, doneRel
		}
		c.autoRelease(h, key)
	case wire.OpReject:
		if a, ok := c.acquires[key.txn]; ok && a.key == key {
			if h.Flags&wire.FlagMoved != 0 {
				// The lock's owner moved mid-request (a rebalancer drain):
				// not a failure. Retry immediately through the switch, which
				// routes to the new owner once the flip completes; the
				// acquire's deadline still bounds the loop.
				a.lastSend = c.tick
				c.enqueueOp(&a.hdr)
				return doneAcq, doneRel
			}
			delete(c.acquires, key.txn)
			a.g = nil
			a.err = rejectErr(h, h.LockID)
			return append(doneAcq, a), doneRel
		}
	case wire.OpReleaseAck:
		if g, ok := c.releases[key.txn]; ok && g.key == key {
			delete(c.releases, key.txn)
			return doneAcq, append(doneRel, g)
		}
	case wire.OpEpoch:
		c.adoptEpoch(h, rk)
	case wire.OpWrongRack:
		// The addressed rack does not own the lock's shard. The full map
		// frame travels alongside this bounce and re-routes everything on
		// adoption; if our map already routes the lock elsewhere (the map
		// frame won the race, or the op was mis-sent), resend now.
		if c.smap == nil || (rk >= 0 && c.rackFor(h.LockID) == rk) {
			return doneAcq, doneRel
		}
		if a, ok := c.acquires[key.txn]; ok && a.key == key {
			a.lastSend = c.tick
			c.enqueueOp(&a.hdr)
		} else if g, ok := c.releases[key.txn]; ok && g.key == key {
			g.lastSend = c.tick
			c.enqueueRelease(g)
		}
	}
	return doneAcq, doneRel
}

// finishAcquire delivers one staged acquire completion. Must be called
// without c.mu held.
func (c *Client) finishAcquire(a *AsyncAcquire) {
	if cb := a.cb; cb != nil {
		g, err := a.g, a.err
		c.recycleAcquire(a)
		cb(g, err)
		return
	}
	a.ch <- struct{}{}
}

// finishRelease resolves one acked release: hand the token to a
// ReleaseWait consumer, or recycle the grant directly. Must be called
// without c.mu held.
func (c *Client) finishRelease(g *Grant) {
	if g.state.Load() == grantWaited {
		select {
		case g.ackCh <- struct{}{}:
		default:
		}
		return
	}
	c.recycleGrant(g)
}

func (c *Client) recycleAcquire(a *AsyncAcquire) {
	select {
	case <-a.ch:
	default:
	}
	a.cb = nil
	a.g = nil
	a.err = nil
	a.deadline = time.Time{}
	c.acqPool.Put(a)
}

func (c *Client) recycleGrant(g *Grant) {
	select {
	case <-g.ackCh:
	default:
	}
	g.state.Store(grantFree)
	c.grantPool.Put(g)
}

func rejectErr(h *wire.Header, lockID uint32) error {
	if h.Flags&wire.FlagOverflow != 0 {
		return fmt.Errorf("transport: acquire lock %d: %w", lockID, netlock.ErrQueueOverflow)
	}
	return fmt.Errorf("transport: acquire lock %d: %w", lockID, netlock.ErrQuotaExceeded)
}
