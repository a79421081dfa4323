// Package transport runs NetLock over real UDP sockets: a switch node that
// processes NetLock packets through the data-plane program
// (internal/switchdp), lock-server nodes that own unpopular locks and
// buffer overflow, and a multiplexed client.
//
// The deployment mirrors the paper's: clients address the switch (it is the
// ToR; every packet traverses it), the switch either processes a request in
// its data plane or forwards it to the lock server responsible for the
// lock, and grants flow back through the switch to the client. Since grant
// notifications can be emitted long after the request packet (when a queued
// lock is granted by someone else's release), the switch keeps a per-op
// table mapping (lock, transaction) to the requester's UDP address.
//
// Every node sends wire batch frames (wire.BatchWriter) holding up to
// wire.MaxBatchOps headers, batching its egress per destination and
// flushing at its own policy (see egress and Client). The switch also
// accepts a datagram holding one bare wire.Header — the paper's
// one-request-per-packet format (§4.2) — from external senders; the first
// byte disambiguates. Clients and lock servers hear only from switches and
// decode batch frames only.
//
// The client-facing edge is lossy and the protocol tolerates it end to
// end: clients retransmit unanswered acquires and un-acked releases, and
// the switch deduplicates. A retransmitted acquire whose grant was lost is
// answered from the switch's grant cache without touching the data plane
// (a duplicate enqueue would install a ghost holder); a retransmitted
// release is forwarded to the lock server at most once (a release dequeues
// the granted head of its queue, so a duplicate would release a different
// holder's lock). Releases are acknowledged end to end with
// wire.OpReleaseAck — by the switch for switch-resident locks, by the
// owning lock server otherwise — and the ack is idempotent. The in-rack
// links between the switch and its servers are assumed reliable, as in the
// paper's rack deployment; the q1/q2 overflow protocol (§4.3) sends
// server-bound packets exactly once.
//
// This is the demonstration plane: correctness over sockets, not the
// evaluation plane (internal/cluster reproduces the paper's numbers in
// virtual time).
package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// maxPacket bounds one ingress datagram; it comfortably holds a full batch
// frame (wire.MaxDatagram).
const maxPacket = 2048

// Switch is a NetLock switch node on a UDP socket.
type Switch struct {
	conn PacketConn
	dp   *switchdp.Switch
	now  func() int64
	o    *obs.Stripe

	mu      sync.Mutex
	servers []netip.AddrPort
	// ops is the per-(lock, txn) dedup table. live lists the entries not
	// in phase done, so walks skip the tombstones; doneRing bounds those by
	// evicting the oldest completed key. Entries recycle through opFree.
	ops      map[opKey]*opEntry
	live     []*opEntry
	opFree   []*opEntry
	doneRing []opKey
	doneNext int
	eg       *egress

	// route maps a lock to its index in servers, drain redirects applied.
	// Routing is send-side-only state: members may briefly disagree during
	// a flip without diverging, because only the tail's sends are visible.
	route lockserver.Routing
	// migStage accumulates a promote's sequenced state records (MigBegin …
	// MigEntry) per lock until MigCommit installs them; part of the
	// replicated apply path, so every member stages identically.
	migStage map[uint32]*migStaging
	// migDemoted / migErr hand the last applyMigrate result on THIS member
	// back to the head-side entry points (sequence() applies locally and
	// synchronously under s.mu).
	migDemoted *wire.LockState
	migErr     error

	// chain is the replication role (see chain.go). NewSwitch initializes
	// a single-member chain — head and tail at epoch 0 — which behaves
	// exactly like an unreplicated switch.
	chain  chainState
	selfAP netip.AddrPort
	// sweeps counts control-plane sweeps. Re-sends (grants, the chain
	// log) are paced by it, so the per-op path never reads the clock.
	sweeps uint64

	// Multi-rack fabric routing (see shard.go). smap is nil outside a
	// fabric; smapFrame caches its encoding for wrong-rack bounces, and
	// fenced marks shards mid re-home whose client ops are dropped.
	smap      *wire.ShardMap
	selfRack  int
	smapFrame []byte
	fenced    map[uint32]bool

	wg     sync.WaitGroup
	closed chan struct{}
}

// opKey identifies one op. The lock belongs in the key because external
// bare-header senders may reuse a txn across locks; both fields are 64-bit
// so the key has no padding and hashes in one pass.
type opKey struct{ txn, lock uint64 }

func keyOf(h *wire.Header) opKey { return opKey{h.TxnID, uint64(h.LockID)} }

// opPhase is where an op stands in its acquire/release cycle; every chain
// member moves it identically, in the apply path.
type opPhase uint8

const (
	// phasePending: an acquire awaits its grant. arrivedNs (observability
	// on) is its arrival, from which the switch times end-to-end latency.
	phasePending opPhase = iota
	// phaseGranted: hdr caches the delivered grant until the release
	// completes: acquire retransmits whose grant was lost are answered from
	// it without the data plane, exactly one release per grant reaches the
	// data plane, and the sweep re-sends it (the release is the delivery
	// ack). sentSweep is the sweep count at the last delivery attempt.
	phaseGranted
	// phaseReleasing: the release was forwarded to a lock server and ackTo
	// awaits its ack; the grant stays cached.
	phaseReleasing
	// phaseDone: a tombstone. A network-delayed duplicate of an acquire
	// whose cycle finished would otherwise re-enter the rack and leave a
	// ghost holder wedging the lock. Txn IDs are drawn once per op from
	// per-client disjoint random ranges, so a done key never returns
	// legitimately.
	phaseDone
)

// opEntry is one op's dedup state; while not done it is s.live[live].
type opEntry struct {
	key       opKey
	phase     opPhase
	live      int
	addr      netip.AddrPort // the requester, then the holder
	ackTo     netip.AddrPort
	arrivedNs int64
	sentSweep uint64
	hdr       wire.Header
}

// grantResendNs paces the sweep's re-send of un-released grants. Held
// locks cost one duplicate grant datagram per interval (ignored by live
// holders); grants for vanished clients re-send until the lease sweep
// reclaims the hold.
const grantResendNs = int64(100 * time.Millisecond)

// doneWindow is how many completed (lock, txn) keys each switch remembers
// for duplicate suppression. A delayed duplicate arrives within a few
// retransmit intervals of its op completing; the window only has to
// outlast that, not the run.
const doneWindow = 8192

// SwitchConfig configures a switch node.
type SwitchConfig struct {
	// Listen is the UDP address to bind ("127.0.0.1:0" for ephemeral).
	Listen string
	// DataPlane configures the switch program.
	DataPlane switchdp.Config
	// Servers are the lock servers' UDP addresses; locks partition across
	// them by lockserver.RSSCore.
	Servers []string
	// SweepInterval runs the control-plane sweep: expired-lease release
	// injection and stranded-overflow re-notification. Default 10ms.
	SweepInterval time.Duration
	// Net is the socket factory; nil means real UDP.
	Net Network
}

// NewSwitch binds and starts a switch node.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	nw := cfg.Net
	if nw == nil {
		nw = UDP
	}
	conn, err := nw.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	if cfg.DataPlane.Now == nil {
		start := time.Now()
		cfg.DataPlane.Now = func() int64 { return int64(time.Since(start)) }
	}
	s := &Switch{
		conn:     conn,
		dp:       switchdp.New(cfg.DataPlane),
		o:        cfg.DataPlane.Obs,
		ops:      make(map[opKey]*opEntry),
		migStage: make(map[uint32]*migStaging),
		doneRing: make([]opKey, doneWindow),
		closed:   make(chan struct{}),
	}
	s.eg = newEgress(conn, s.o)
	s.chain = chainState{head: true, tail: true}
	if ua, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		s.selfAP = normAddrPort(ua.AddrPort())
	}
	for _, sa := range cfg.Servers {
		ap, err := resolveAddrPort(sa)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve server addr %q: %w", sa, err)
		}
		s.servers = append(s.servers, ap)
	}
	if len(s.servers) == 0 {
		conn.Close()
		return nil, fmt.Errorf("transport: switch needs at least one lock server")
	}
	s.route = lockserver.NewRouting(len(s.servers))
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 10 * time.Millisecond
	}
	s.now = cfg.DataPlane.Now
	s.wg.Add(1)
	go s.readLoop()
	s.wg.Add(1)
	go s.sweepLoop(cfg.SweepInterval)
	return s, nil
}

// sweepLoop is the switch control plane's periodic poll (§4.5): it injects
// releases for expired leases, re-issues push notifications for stranded
// overflow queues, and re-sends undelivered grants. Sweep duties are split
// by chain role: only the head scans for expired leases (the decision
// consults the wall clock, so it must be made once and sequenced down the
// chain like any other op), and only the tail performs external sends (the
// stranded-queue notifications and grant re-sends), reading its own
// replica of the same state the head sees.
func (s *Switch) sweepLoop(interval time.Duration) {
	defer s.wg.Done()
	// Sends are stamped with the sweep count. Waiting ceil(d/interval)+1
	// sweeps re-sends at least d after the last send and less than
	// d + 2×interval after it (d + interval when the interval divides d).
	every := int64(interval)
	grantSweeps := uint64((grantResendNs+every-1)/every) + 1
	healSweeps := uint64((chainHealNs+every-1)/every) + 1
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.mu.Lock()
			s.sweeps++
			if s.chain.head {
				for _, h := range s.dp.CtrlScanExpired(s.now()) {
					h := h
					// Sequenced with OriginCtrl: every member drops the
					// grant cache (so a late client release acks
					// idempotently instead of releasing whoever holds the
					// lock next) and applies the release.
					s.sequence(wire.OriginCtrl, &h)
				}
			}
			if s.chain.tail {
				for _, h := range s.dp.CtrlScanStranded() {
					h := h
					s.eg.send(&h, s.serverFor(h.LockID))
				}
				for _, e := range s.live {
					if e.phase != phaseGranted || s.sweeps-e.sentSweep < grantSweeps {
						continue
					}
					e.sentSweep = s.sweeps
					s.eg.send(&e.hdr, e.addr)
				}
			}
			s.chainHeal(healSweeps)
			s.eg.flushAll()
			s.flushChain()
			s.mu.Unlock()
		}
	}
}

// Addr returns the switch's bound UDP address.
func (s *Switch) Addr() string { return s.conn.LocalAddr().String() }

// WithDataPlane runs fn with exclusive access to the switch program,
// serialized against packet processing and the control-plane sweep. This is
// the only way to reach the data plane: control operations (installing
// locks, quotas) race with the read loop otherwise.
func (s *Switch) WithDataPlane(fn func(dp *switchdp.Switch)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.dp)
}

// SwitchSnapshot is a consistent point-in-time view of a switch node.
type SwitchSnapshot struct {
	// Stats are the data-plane processing counters.
	Stats switchdp.Stats
	// ResidentLocks is the number of switch-resident locks.
	ResidentLocks int
	// SlotsInUse is the number of occupied shared-queue slots.
	SlotsInUse uint64
	// FreeEntries is the number of free lock-table entries.
	FreeEntries int
	// PendingAcquires is the number of acquires whose grant has not yet
	// been delivered to a client.
	PendingAcquires int
	// TrackedGrants is the number of delivered grants whose release has
	// not yet completed.
	TrackedGrants int
	// PendingReleases is the number of releases forwarded to a lock
	// server and not yet acked.
	PendingReleases int
}

// Snapshot captures the switch's counters and occupancy gauges under the
// same serialization WithDataPlane uses; the observability exporter
// (cmd/netlockd) builds its gauge set from this.
func (s *Switch) Snapshot() SwitchSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SwitchSnapshot{
		Stats:         s.dp.Stats(),
		ResidentLocks: len(s.dp.CtrlResidentLocks()),
		SlotsInUse:    s.dp.CtrlSlotsInUse(),
		FreeEntries:   s.dp.CtrlFreeEntries(),
	}
	for _, e := range s.live {
		switch e.phase {
		case phasePending:
			snap.PendingAcquires++
		case phaseReleasing:
			snap.PendingReleases++
			fallthrough
		case phaseGranted:
			snap.TrackedGrants++
		}
	}
	return snap
}

// Close stops the node.
func (s *Switch) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Switch) serverFor(lockID uint32) netip.AddrPort {
	return s.servers[s.route.Home(lockID)]
}

// SetServerRedirect reroutes partition victim to target, following any
// existing redirects from target. The controller flips routing only after
// the victim's lock state has moved, so a redirected request always finds
// its lock at the target.
func (s *Switch) SetServerRedirect(victim, target int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.route.Redirect(victim, target); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	return nil
}

// AddServerAddr appends a lock server to this switch's partition table.
// Growing the table changes RSSCore homes for existing locks, so the
// controller migrates affected lock state first and flips every member's
// table last.
func (s *Switch) AddServerAddr(addr string) error {
	ap, err := resolveAddrPort(addr)
	if err != nil {
		return fmt.Errorf("transport: resolve server addr %q: %w", addr, err)
	}
	s.mu.Lock()
	s.servers = append(s.servers, ap)
	s.route.Grow()
	s.mu.Unlock()
	return nil
}

// NumServers returns the size of the switch's partition table.
func (s *Switch) NumServers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.servers)
}

func (s *Switch) fromServer(ap netip.AddrPort) bool {
	for _, sv := range s.servers {
		if sv == ap {
			return true
		}
	}
	return false
}

func (s *Switch) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxPacket)
	var h wire.Header
	var br wire.BatchReader
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue // transient error; the ToR keeps forwarding
			}
		}
		from = normAddrPort(from)
		data := buf[:n]
		s.mu.Lock()
		if wire.IsChain(data) {
			s.handleChain(data, from)
		} else if wire.IsBatch(data) {
			if br.Reset(data) == nil {
				ops := 0
				for {
					ok, err := br.Next(&h)
					if err != nil || !ok {
						break
					}
					ops++
					s.handleOp(&h, from)
				}
				if ops > 0 {
					s.o.Inc(obs.CtrFramesIn)
					s.o.Add(obs.CtrOpsIn, uint64(ops))
				}
			}
		} else if h.DecodeFromBytes(data) == nil {
			// One bare header: the paper's one-request-per-packet
			// format, accepted from external senders.
			s.o.Inc(obs.CtrFramesIn)
			s.o.Inc(obs.CtrOpsIn)
			s.handleOp(&h, from)
		}
		s.eg.flushAll()
		s.flushChain()
		s.mu.Unlock()
	}
}

// handleOp processes one external ingress operation: the head classifies
// and sequences it; other members relay it to the head. Caller holds s.mu.
func (s *Switch) handleOp(h *wire.Header, from netip.AddrPort) {
	if !s.chain.head {
		s.relayToHead(h, from)
		return
	}
	origin := wire.OriginClient
	if s.fromServer(from) {
		origin = wire.OriginServer
	}
	s.headIngress(origin, h, from)
}

// headIngress is the chain head's (and a standalone switch's) ingress
// stage: it answers retransmit duplicates from the replicated tables —
// those answers mutate nothing, so the head emits them directly — and
// sequences everything that does mutate replicated state. Caller holds
// s.mu.
func (s *Switch) headIngress(origin wire.ChainOrigin, h *wire.Header, from netip.AddrPort) {
	if h.Op == wire.OpMigrate {
		// Migrate records enter the stream only through the head-side move
		// entry points (MigrateDemoteLock / MigratePromoteLock); an external
		// OpMigrate datagram is spoofed or corrupt.
		return
	}
	if origin == wire.OriginClient {
		// Fabric shard routing runs before the dedup tables: a lock whose
		// shard moved to another rack may still have stale table entries
		// here, and answering from them would speak for state that now
		// lives elsewhere.
		if s.shardFilter(h, from) {
			return
		}
		switch h.Op {
		case wire.OpAcquire:
			if h.Flags&wire.FlagOverflow == 0 {
				s.headAcquire(h, from)
				return
			}
		case wire.OpRelease:
			s.headRelease(h, from)
			return
		case wire.OpEpoch:
			return // control-plane announcement; clients never send these
		}
	}
	s.sequence(origin, h)
}

// headAcquire processes a client acquire, deduplicating retransmits.
// Caller holds s.mu.
func (s *Switch) headAcquire(h *wire.Header, from netip.AddrPort) {
	if e := s.ops[keyOf(h)]; e != nil {
		if from.IsValid() {
			e.addr = from // a tombstone's address is never read
		}
		switch e.phase {
		case phaseGranted, phaseReleasing:
			// Retransmit of an acquire whose grant (or everything since)
			// was lost: answer from the cache. The data plane must not see
			// the duplicate — it would enqueue a ghost holder.
			e.sentSweep = s.sweeps
			s.eg.send(&e.hdr, e.addr)
		case phasePending:
			// Retransmit of a still-queued acquire. For a switch-resident
			// lock the request is already queued in the data plane:
			// refresh the return address only. For a server-owned lock the
			// forward leg (tail→server) or its grant may have been lost —
			// to the in-rack network or to a failed chain member — so
			// re-sequence the acquire end to end. The server deduplicates
			// by (lock, txn) and re-emits granted entries, so re-forwarding
			// on every retransmit is a self-healing no-op in the common
			// case.
			if !s.dp.CtrlHasLock(h.LockID) {
				s.stampClient(h, from)
				s.sequence(wire.OriginClient, h)
			}
		}
		return // phaseDone: a late duplicate would be a ghost holder
	}
	if s.chain.meterAtHead && !s.dp.CtrlMeterAdmit(h.TenantID) {
		// Chain-mode quota check, decided once before sequencing: the
		// meter consults the wall clock, so replicas metering
		// independently would diverge. Rejects mutate no replicated
		// state; the head answers directly.
		if from.IsValid() {
			rej := *h
			rej.Op = wire.OpReject
			s.eg.send(&rej, from)
		}
		return
	}
	s.stampClient(h, from)
	s.sequence(wire.OriginClient, h)
}

// headRelease applies the at-most-one-data-plane-release rule to a client
// release. Caller holds s.mu.
func (s *Switch) headRelease(h *wire.Header, from netip.AddrPort) {
	e := s.ops[keyOf(h)]
	if e != nil && e.phase == phaseReleasing {
		// Client retransmit while the forwarded release is still at its
		// server: refresh the ack address. If the lock is server-owned
		// the forward (or its ack) may have been lost, so re-sequence it
		// — the server matches releases by txn and counts an
		// already-applied one as a duplicate no-op.
		if from.IsValid() {
			e.ackTo = from
		}
		if !s.dp.CtrlHasLock(h.LockID) {
			s.stampClient(h, from)
			s.sequence(wire.OriginClient, h)
		}
		return
	}
	if e == nil || e.phase != phaseGranted {
		// Duplicate of a completed release, or a release for a hold the
		// lease sweep already reclaimed: ack idempotently without
		// touching the data plane.
		if from.IsValid() {
			s.ackRelease(h, from)
		}
		return
	}
	s.stampClient(h, from)
	s.sequence(wire.OriginClient, h)
}

// applyOp applies one sequenced operation to this member's replicated
// state: the data plane plus the per-op dedup table.
// Every chain member executes the identical op stream through this
// function; only the tail's client- and server-bound sends are externally
// visible. Caller holds s.mu.
func (s *Switch) applyOp(origin wire.ChainOrigin, h *wire.Header) {
	key := keyOf(h)
	switch h.Op {
	case wire.OpMigrate:
		s.applyMigrate(h)
	case wire.OpGrant, wire.OpReject, wire.OpFetch:
		// Passthrough from a lock server toward the client.
		s.deliverToClient(h)
	case wire.OpReleaseAck:
		// The owning server consumed a forwarded release: complete the
		// end-to-end ack.
		if e := s.ops[key]; e != nil && e.phase == phaseReleasing {
			to := e.ackTo
			s.markDone(key, e)
			s.emitToClient(h, to)
		}
	case wire.OpRelease:
		s.applyRelease(origin, h, key)
	case wire.OpAcquire:
		if origin != wire.OriginClient || h.Flags&wire.FlagOverflow != 0 {
			// Server-originated (a request bounced across a lock move) or
			// overflow-marked: the pending entry for the original client,
			// if any, must not be rewritten. A bounce whose txn the data
			// plane already queues is a retransmit that crossed a
			// server-to-switch move (the server's dedup state was exported
			// with the lock); admitting it would enqueue a ghost duplicate.
			if s.dp.CtrlHasTxn(h.LockID, h.TxnID) {
				return
			}
			s.process(h)
			return
		}
		s.setPending(key, clientAddrOf(h))
		s.process(h)
	case wire.OpPush:
		// Same ghost-duplicate guard for the overflow replay path: a
		// retransmit can sit in a server's q2 while its original migrates
		// into the switch, and the later push would double-queue it. A
		// final push's clear-overflow side effect must survive the drop,
		// so it is replayed in its pure control form (TxnNone).
		if s.dp.CtrlHasTxn(h.LockID, h.TxnID) {
			if h.Flags&wire.FlagOverflow != 0 {
				cl := *h
				cl.TxnID = wire.TxnNone
				s.process(&cl)
			}
			return
		}
		s.process(h)
	default:
		s.process(h)
	}
}

// liveOp returns key's entry, from the free list if new, listed live for
// the caller to set a live phase on. Caller holds s.mu.
func (s *Switch) liveOp(key opKey) *opEntry {
	e := s.ops[key]
	switch {
	case e == nil:
		if n := len(s.opFree); n > 0 {
			e, s.opFree = s.opFree[n-1], s.opFree[:n-1]
			*e = opEntry{key: key}
		} else {
			e = &opEntry{key: key}
		}
		s.ops[key] = e
	case e.phase != phaseDone:
		return e
	}
	e.live = len(s.live)
	s.live = append(s.live, e)
	return e
}

// unlist removes e from the live list. Caller holds s.mu.
func (s *Switch) unlist(e *opEntry) {
	last := s.live[len(s.live)-1]
	last.live = e.live
	s.live[e.live] = last
	s.live = s.live[:len(s.live)-1]
}

// setPending records an acquire awaiting its grant for the requester at
// addr. Caller holds s.mu.
func (s *Switch) setPending(key opKey, addr netip.AddrPort) {
	e := s.liveOp(key)
	e.phase, e.addr, e.arrivedNs = phasePending, addr, 0
	if s.o.Enabled() {
		e.arrivedNs = s.now()
	}
}

// markDone tombstones key (e is its entry, nil if none). Runs in the apply
// path: every chain member records the identical window. Caller holds s.mu.
func (s *Switch) markDone(key opKey, e *opEntry) {
	if e == nil {
		e = s.liveOp(key)
	} else if e.phase == phaseDone {
		return
	}
	// Evict only a tombstone: ImportClientState may have revived the key.
	if old := s.doneRing[s.doneNext]; old != (opKey{}) {
		if oe := s.ops[old]; oe != nil && oe.phase == phaseDone {
			delete(s.ops, old)
			s.opFree = append(s.opFree, oe)
		}
	}
	s.unlist(e)
	e.phase = phaseDone
	s.doneRing[s.doneNext] = key
	s.doneNext = (s.doneNext + 1) % len(s.doneRing)
}

// endHold tombstones key once its release has been applied and returns the
// client a forwarded release owes an ack to (invalid if none). A pending
// acquire is left to await its grant. Caller holds s.mu.
func (s *Switch) endHold(key opKey) (ackTo netip.AddrPort) {
	e := s.ops[key]
	if e != nil && e.phase == phasePending {
		return ackTo
	}
	if e != nil && e.phase == phaseReleasing {
		ackTo = e.ackTo
	}
	s.markDone(key, e)
	return ackTo
}

// applyRelease applies one sequenced release by origin. Caller holds s.mu.
func (s *Switch) applyRelease(origin wire.ChainOrigin, h *wire.Header, key opKey) {
	switch origin {
	case wire.OriginServer:
		// Bounced across a server-to-switch move: the data plane owns the
		// lock now. In-rack links are reliable, but the bounce can still be
		// a duplicate: a release retransmit re-sequenced while the lock was
		// server-owned puts two copies in flight, and when a promote's
		// export lands between them the post-export server has no queue
		// state left to deduplicate with — it bounces both. The data plane
		// releases by queue head, not by transaction (§4.2), so the second
		// copy would dequeue whoever holds the lock now. Admit a bounce
		// only if the releasing transaction is actually queued here;
		// otherwise its hold is already gone — finish idempotently.
		gone := s.dp.CtrlHasLock(h.LockID) && !s.dp.CtrlHasTxn(h.LockID, h.TxnID)
		if !gone && s.processRelease(h) {
			return // forwarded onward again; ack still pending
		}
		s.ackReleaseTail(h, s.endHold(key))
	case wire.OriginCtrl:
		// The head's lease sweep reclaimed this hold; drop its grant
		// cache so a late client release acks idempotently instead of
		// releasing whoever holds the lock next. The hold's owner is
		// presumed gone, so its late duplicates are tombstoned too.
		s.endHold(key)
		s.process(h)
	default:
		// Client release, already vetted by the head's dedup table.
		if s.processRelease(h) {
			e := s.liveOp(key)
			e.phase = phaseReleasing
			e.ackTo = clientAddrOf(h) // the owning server will ack
			return
		}
		s.endHold(key)
		s.ackReleaseTail(h, clientAddrOf(h))
	}
}

// processRelease runs one release through the data plane and reports
// whether it was forwarded onward to a lock server. Caller holds s.mu.
func (s *Switch) processRelease(h *wire.Header) bool {
	emits, _ := s.dp.ProcessPacket(h)
	forwarded := false
	for i := range emits {
		e := &emits[i]
		if e.Action == switchdp.ActForward && e.Hdr.Op == wire.OpRelease &&
			e.Hdr.LockID == h.LockID && e.Hdr.TxnID == h.TxnID {
			forwarded = true
		}
		s.routeEmit(e)
	}
	return forwarded
}

// ackRelease sends an OpReleaseAck echo of h to the releasing client.
// Caller holds s.mu.
func (s *Switch) ackRelease(h *wire.Header, to netip.AddrPort) {
	ack := *h
	ack.Op = wire.OpReleaseAck
	s.eg.send(&ack, to)
}

// ackReleaseTail is ackRelease gated to the tail: every member applies the
// table mutation, only the tail's ack leaves the rack. Caller holds s.mu.
func (s *Switch) ackReleaseTail(h *wire.Header, to netip.AddrPort) {
	if s.chain.tail && to.IsValid() {
		s.ackRelease(h, to)
	}
}

// emitToClient sends a client-bound packet if this member is the tail.
// Caller holds s.mu.
func (s *Switch) emitToClient(h *wire.Header, to netip.AddrPort) {
	if s.chain.tail && to.IsValid() {
		s.eg.send(h, to)
	}
}

// process runs one packet through the data plane and routes its emits.
// Caller holds s.mu.
func (s *Switch) process(h *wire.Header) {
	emits, _ := s.dp.ProcessPacket(h)
	for i := range emits {
		s.routeEmit(&emits[i])
	}
}

// routeEmit sends one switch output packet. Caller holds s.mu.
func (s *Switch) routeEmit(e *switchdp.Emit) {
	switch e.Action {
	case switchdp.ActGrant, switchdp.ActReject, switchdp.ActFetch:
		s.deliverToClient(&e.Hdr)
	case switchdp.ActForward, switchdp.ActForwardOverflow, switchdp.ActPushNotify:
		// Server-bound traffic is emitted by the tail only: a grant that a
		// server produces in response is then externally visible exactly
		// when the whole chain has recorded the request that caused it.
		if s.chain.tail {
			s.eg.send(&e.Hdr, s.serverFor(e.Hdr.LockID))
		}
	}
}

// deliverToClient forwards a grant/reject to the requester of a pending
// acquire. Caller holds s.mu.
func (s *Switch) deliverToClient(h *wire.Header) {
	key := keyOf(h)
	e := s.ops[key]
	if e == nil || e.phase != phasePending {
		return // duplicate or expired
	}
	to := e.addr
	if h.Op == wire.OpReject {
		s.unlist(e)
		delete(s.ops, key)
		s.opFree = append(s.opFree, e)
	} else {
		// Cache the grant until its release completes: acquire
		// retransmits are answered from here, and the sweep re-sends it
		// until the release acknowledges delivery.
		e.phase = phaseGranted
		e.hdr = *h
		e.sentSweep = s.sweeps
		if e.arrivedNs != 0 {
			s.o.Observe(obs.StageAcquireE2E, s.now()-e.arrivedNs)
		}
	}
	s.emitToClient(h, to)
}

// Server is a NetLock lock-server node on a UDP socket.
type Server struct {
	conn PacketConn
	ls   *lockserver.Server

	mu         sync.Mutex
	switchAddr netip.AddrPort
	eg         *egress

	wg     sync.WaitGroup
	closed chan struct{}
}

// ServerConfig configures a lock-server node.
type ServerConfig struct {
	Listen string
	Config lockserver.Config
	// Net is the socket factory; nil means real UDP.
	Net Network
}

// NewServer binds and starts a lock-server node. The switch address is set
// later with SetSwitchAddr (the switch must know the servers first).
func NewServer(cfg ServerConfig) (*Server, error) {
	nw := cfg.Net
	if nw == nil {
		nw = UDP
	}
	conn, err := nw.Listen(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	if cfg.Config.Priorities == 0 {
		cfg.Config.Priorities = 1
	}
	if cfg.Config.Now == nil {
		start := time.Now()
		cfg.Config.Now = func() int64 { return int64(time.Since(start)) }
	}
	srv := &Server{
		conn:   conn,
		ls:     lockserver.New(cfg.Config),
		closed: make(chan struct{}),
	}
	srv.eg = newEgress(conn, cfg.Config.Obs)
	srv.wg.Add(1)
	go srv.readLoop()
	return srv, nil
}

// Addr returns the server's bound UDP address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// SetSwitchAddr points the server at its switch (for pushes and grant
// routing).
func (s *Server) SetSwitchAddr(addr string) error {
	ap, err := resolveAddrPort(addr)
	if err != nil {
		return fmt.Errorf("transport: resolve switch addr: %w", err)
	}
	s.mu.Lock()
	s.switchAddr = ap
	s.mu.Unlock()
	return nil
}

// LockServer exposes the underlying lock table for control operations.
func (s *Server) LockServer() *lockserver.Server { return s.ls }

// WithLockServer runs fn with exclusive access to the lock table,
// serialized against packet processing — the safe way to issue control
// operations (ownership moves, policy changes) on a live node.
func (s *Server) WithLockServer(fn func(ls *lockserver.Server)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.ls)
}

// Close stops the node.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxPacket)
	var h wire.Header
	var br wire.BatchReader
	for {
		n, _, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		data := buf[:n]
		s.mu.Lock()
		if wire.IsBatch(data) && br.Reset(data) == nil {
			for {
				ok, err := br.Next(&h)
				if err != nil || !ok {
					break
				}
				s.handleOp(&h)
			}
		}
		s.eg.flushAll()
		s.mu.Unlock()
	}
}

// handleOp processes one ingress operation. Caller holds s.mu.
func (s *Server) handleOp(h *wire.Header) {
	sw := s.switchAddr
	emits := s.ls.ProcessPacket(h)
	bounced := false
	for i := range emits {
		e := &emits[i]
		if e.Hdr.Op == wire.OpRelease && e.Hdr.LockID == h.LockID && e.Hdr.TxnID == h.TxnID {
			// The release raced a server-to-switch move and bounced; the
			// switch (which owns the lock now) acks it, not us.
			bounced = true
		}
		// Every server output returns through the switch: grants are
		// forwarded to the client by the switch's pending table, and
		// pushes are processed by its data plane.
		if sw.IsValid() {
			s.eg.send(&e.Hdr, sw)
		}
	}
	if h.Op == wire.OpRelease && !bounced && sw.IsValid() {
		// Consumed (or spurious) release: ack it end to end so the
		// client stops retransmitting. The switch forwards the ack and
		// retires its grant cache.
		ack := *h
		ack.Op = wire.OpReleaseAck
		s.eg.send(&ack, sw)
	}
}
