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
// lock is granted by someone else's release), the switch keeps a pending
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
	// pending maps an acquire awaiting its grant to the requester.
	pending map[pendKey]pendingReq
	// granted caches delivered grants until their release completes, for
	// three duties: answering acquire retransmits whose grant was lost
	// without re-entering the data plane, gating the data plane to
	// exactly one release per grant, and re-sending undelivered grants
	// from the sweep (the release is the delivery ack; a live client
	// auto-releases a grant it no longer has an op for).
	granted map[pendKey]grantEntry
	// relPending maps a release forwarded to a lock server (not yet
	// acked) to the client awaiting the ack. While an entry exists,
	// client retransmits of that release only refresh the address.
	relPending map[pendKey]netip.AddrPort
	// done tombstones recently completed (lock, txn) keys. A
	// network-delayed duplicate of an acquire whose whole cycle already
	// finished finds pending and granted empty, so without the tombstone
	// it would re-enter the rack as a fresh request and leave a ghost
	// holder wedging the lock — the grant-re-send/auto-release recovery
	// above only works while the duplicate's owner keeps answering.
	// Recorded in the apply path, so every chain member (and any future
	// head) shares the window; doneRing bounds it by evicting the oldest
	// key. Txn IDs are drawn once per op from per-client disjoint random
	// ranges, so a completed key never returns legitimately.
	done     map[pendKey]struct{}
	doneRing []pendKey
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

type pendKey struct {
	lock uint32
	txn  uint64
}

// pendingReq remembers an acquire awaiting its grant: the requester's UDP
// address and, when observability is on, the arrival instant — the
// switch's view of end-to-end acquire latency runs from here to grant
// delivery.
type pendingReq struct {
	addr   netip.AddrPort
	sentNs int64
}

// grantEntry is one delivered-but-unreleased grant: the cached grant
// header, the holder's address, and the last delivery attempt (data-plane
// clock) for re-send pacing.
type grantEntry struct {
	hdr    wire.Header
	addr   netip.AddrPort
	sentNs int64
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
		conn:       conn,
		dp:         switchdp.New(cfg.DataPlane),
		o:          cfg.DataPlane.Obs,
		pending:    make(map[pendKey]pendingReq),
		granted:    make(map[pendKey]grantEntry),
		relPending: make(map[pendKey]netip.AddrPort),
		migStage:   make(map[uint32]*migStaging),
		done:       make(map[pendKey]struct{}),
		doneRing:   make([]pendKey, doneWindow),
		closed:     make(chan struct{}),
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
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.mu.Lock()
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
				now := s.now()
				for key, g := range s.granted {
					if _, releasing := s.relPending[key]; releasing {
						continue
					}
					if now-g.sentNs < grantResendNs {
						continue
					}
					g.sentNs = now
					s.granted[key] = g
					s.eg.send(&g.hdr, g.addr)
				}
			}
			s.chainHeal()
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
	return SwitchSnapshot{
		Stats:           s.dp.Stats(),
		ResidentLocks:   len(s.dp.CtrlResidentLocks()),
		SlotsInUse:      s.dp.CtrlSlotsInUse(),
		FreeEntries:     s.dp.CtrlFreeEntries(),
		PendingAcquires: len(s.pending),
		TrackedGrants:   len(s.granted),
		PendingReleases: len(s.relPending),
	}
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
	key := pendKey{h.LockID, h.TxnID}
	if g, ok := s.granted[key]; ok {
		// Retransmit of an acquire whose grant (or everything since) was
		// lost: answer from the cache. The data plane must not see the
		// duplicate — it would enqueue a ghost holder.
		if from.IsValid() {
			g.addr = from
		}
		g.sentNs = s.now()
		s.granted[key] = g
		s.eg.send(&g.hdr, g.addr)
		return
	}
	if p, ok := s.pending[key]; ok {
		// Retransmit of a still-queued acquire. For a switch-resident
		// lock the request is already queued in the data plane: refresh
		// the return address only. For a server-owned lock the forward
		// leg (tail→server) or its grant may have been lost — to the
		// in-rack network or to a failed chain member — so re-sequence
		// the acquire end to end. The server deduplicates by (lock, txn)
		// and re-emits granted entries, so re-forwarding on every
		// retransmit is a self-healing no-op in the common case.
		if from.IsValid() {
			p.addr = from
		}
		if !s.dp.CtrlHasLock(h.LockID) {
			s.stampClient(h, from)
			s.sequence(wire.OriginClient, h)
			return
		}
		s.pending[key] = p
		return
	}
	if _, ok := s.done[key]; ok {
		// Delayed duplicate of an acquire whose whole cycle already
		// completed: the client is done with this txn, so drop it —
		// admitting it would enqueue a ghost holder.
		return
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
	key := pendKey{h.LockID, h.TxnID}
	if _, ok := s.relPending[key]; ok {
		// Client retransmit while the forwarded release is still at its
		// server: refresh the ack address. If the lock is server-owned
		// the forward (or its ack) may have been lost, so re-sequence it
		// — the server matches releases by txn and counts an
		// already-applied one as a duplicate no-op.
		if from.IsValid() {
			s.relPending[key] = from
		}
		if !s.dp.CtrlHasLock(h.LockID) {
			s.stampClient(h, from)
			s.sequence(wire.OriginClient, h)
		}
		return
	}
	if _, held := s.granted[key]; !held {
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
// state: the data plane plus the pending/granted/relPending dedup tables.
// Every chain member executes the identical op stream through this
// function; only the tail's client- and server-bound sends are externally
// visible. Caller holds s.mu.
func (s *Switch) applyOp(origin wire.ChainOrigin, h *wire.Header) {
	key := pendKey{h.LockID, h.TxnID}
	switch h.Op {
	case wire.OpMigrate:
		s.applyMigrate(h)
	case wire.OpGrant, wire.OpReject, wire.OpFetch:
		// Passthrough from a lock server toward the client.
		s.deliverToClient(h)
	case wire.OpReleaseAck:
		// The owning server consumed a forwarded release: complete the
		// end-to-end ack.
		if to, ok := s.relPending[key]; ok {
			delete(s.relPending, key)
			delete(s.granted, key)
			s.markDone(key)
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
		p := pendingReq{addr: clientAddrOf(h)}
		if s.o.Enabled() {
			p.sentNs = s.now()
		}
		s.pending[key] = p
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

// markDone tombstones a completed (lock, txn) key so late duplicates of
// its acquire are dropped at head ingress instead of re-entering the rack
// as ghost holders. Runs in the apply path: every chain member records the
// identical window. Caller holds s.mu.
func (s *Switch) markDone(key pendKey) {
	if _, ok := s.done[key]; ok {
		return
	}
	if old := s.doneRing[s.doneNext]; old != (pendKey{}) {
		delete(s.done, old)
	}
	s.doneRing[s.doneNext] = key
	s.doneNext = (s.doneNext + 1) % len(s.doneRing)
	s.done[key] = struct{}{}
}

// applyRelease applies one sequenced release by origin. Caller holds s.mu.
func (s *Switch) applyRelease(origin wire.ChainOrigin, h *wire.Header, key pendKey) {
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
		if s.dp.CtrlHasLock(h.LockID) && !s.dp.CtrlHasTxn(h.LockID, h.TxnID) {
			delete(s.granted, key)
			s.markDone(key)
			if to, ok := s.relPending[key]; ok {
				delete(s.relPending, key)
				s.ackReleaseTail(h, to)
			}
			return
		}
		if s.processRelease(h, key) {
			return // forwarded onward again; ack still pending
		}
		delete(s.granted, key)
		s.markDone(key)
		if to, ok := s.relPending[key]; ok {
			delete(s.relPending, key)
			s.ackReleaseTail(h, to)
		}
	case wire.OriginCtrl:
		// The head's lease sweep reclaimed this hold; drop its grant
		// cache so a late client release acks idempotently instead of
		// releasing whoever holds the lock next. The hold's owner is
		// presumed gone, so its late duplicates are tombstoned too.
		delete(s.granted, key)
		delete(s.relPending, key)
		s.markDone(key)
		s.process(h)
	default:
		// Client release, already vetted by the head's dedup tables.
		if s.processRelease(h, key) {
			s.relPending[key] = clientAddrOf(h) // the owning server will ack
			return
		}
		delete(s.granted, key)
		s.markDone(key)
		s.ackReleaseTail(h, clientAddrOf(h))
	}
}

// processRelease runs one release through the data plane and reports
// whether it was forwarded onward to a lock server. Caller holds s.mu.
func (s *Switch) processRelease(h *wire.Header, key pendKey) bool {
	emits, _ := s.dp.ProcessPacket(h)
	forwarded := false
	for i := range emits {
		e := &emits[i]
		if e.Action == switchdp.ActForward && e.Hdr.Op == wire.OpRelease &&
			e.Hdr.LockID == key.lock && e.Hdr.TxnID == key.txn {
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

// deliverToClient forwards a grant/reject to the requester recorded in the
// pending table. Caller holds s.mu.
func (s *Switch) deliverToClient(h *wire.Header) {
	key := pendKey{h.LockID, h.TxnID}
	to, ok := s.pending[key]
	if !ok {
		return // duplicate or expired
	}
	delete(s.pending, key)
	if h.Op != wire.OpReject {
		// Cache the grant until its release completes: acquire
		// retransmits are answered from here, and the sweep re-sends it
		// until the release acknowledges delivery.
		s.granted[key] = grantEntry{hdr: *h, addr: to.addr, sentNs: s.now()}
		if to.sentNs != 0 {
			s.o.Observe(obs.StageAcquireE2E, s.now()-to.sentNs)
		}
	}
	s.emitToClient(h, to.addr)
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
