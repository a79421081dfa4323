package transport

import (
	"net/netip"

	"netlock/internal/wire"
)

// Multi-rack shard routing on the switch. In a fabric (internal/fabric)
// every rack's chain members hold the current wire.ShardMap plus this
// rack's index; the head filters client ingress through it:
//
//   - a request for a shard owned by another rack is answered with an
//     OpWrongRack bounce plus the full serialized map, so stale clients
//     adopt the newer epoch and re-route (the map's authoritative copy
//     lives in the network, NetChain style);
//   - a request for a shard the fabric controller has fenced (mid
//     re-home) is silently dropped — the client's retransmit sweep
//     re-sends it after the flip, when the bounce redirects it to the
//     destination rack.
//
// The map and fences are installed chain-wide (every member stores them)
// so a promoted head filters identically, but only head ingress consults
// them. Outside a fabric the map is nil and the filter is a no-op.

// SetShardMap installs the fabric shard map and this rack's index on this
// member. The encoded frame is cached so bouncing costs no allocation.
func (s *Switch) SetShardMap(m *wire.ShardMap, selfRack int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.smap = m.Clone()
	s.selfRack = selfRack
	s.smapFrame = s.smap.AppendTo(s.smapFrame[:0])
}

// ShardMapEpoch returns the epoch of the installed shard map (0 when none
// is installed).
func (s *Switch) ShardMapEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.smap == nil {
		return 0
	}
	return s.smap.Epoch
}

// SetShardFence fences or unfences one shard on this member: while fenced,
// head ingress drops client requests for the shard's locks (the re-home
// protocol moves the shard's live state rack-to-rack in the window).
func (s *Switch) SetShardFence(shard uint32, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fenced == nil {
		s.fenced = make(map[uint32]bool)
	}
	if on {
		s.fenced[shard] = true
	} else {
		delete(s.fenced, shard)
	}
}

// shardFilter applies the shard map to one client op at head ingress.
// It reports true when the op was consumed (bounced to another rack or
// dropped by a fence). Caller holds s.mu.
func (s *Switch) shardFilter(h *wire.Header, from netip.AddrPort) bool {
	if s.smap == nil {
		return false
	}
	if h.Op != wire.OpAcquire && h.Op != wire.OpRelease {
		return false
	}
	sh := s.smap.ShardOf(h.LockID)
	if s.smap.RackAt(sh) != s.selfRack {
		s.bounceWrongRack(h, from)
		return true
	}
	if s.fenced[sh] {
		return true // mid re-home: drop; the retry lands after the flip
	}
	return false
}

// bounceWrongRack answers a mis-routed client op: an OpWrongRack echo
// (LeaseNs carries the map epoch) through the batched egress plus the
// cached map frame as its own datagram. Caller holds s.mu.
func (s *Switch) bounceWrongRack(h *wire.Header, from netip.AddrPort) {
	if !from.IsValid() {
		return
	}
	wr := *h
	wr.Op = wire.OpWrongRack
	wr.Flags = 0
	wr.LeaseNs = int64(s.smap.Epoch)
	s.eg.send(&wr, from)
	s.conn.WriteToUDPAddrPort(s.smapFrame, from)
}

// PendingReleases counts forwarded-but-unacked client releases for locks
// matching the predicate. The fabric controller polls it (on the head)
// after fencing a shard: with new releases fenced out, the count drains
// monotonically over the reliable in-rack fabric, and export only starts
// once no release is in flight toward a server.
func (s *Switch) PendingReleases(match func(uint32) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.live {
		if e.phase == phaseReleasing && match(uint32(e.key.lock)) {
			n++
		}
	}
	return n
}

// PurgeClientState tombstones every per-(lock, txn) entry — pending
// acquires, cached grants, pending releases — for every lock matching the
// predicate. Called on every chain member after a shard's lock state is
// exported to another rack: the entries describe state that now lives
// elsewhere, so answering retransmits from them (or re-sending their
// grants) would speak for a lock this rack no longer owns. The tombstones keep a chaos-delayed duplicate of a moved
// op from re-entering this rack before the map flip lands.
func (s *Switch) PurgeClientState(match func(uint32) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.live) - 1; i >= 0; i-- { // markDone moves the last entry to i
		if e := s.live[i]; match(uint32(e.key.lock)) {
			s.markDone(e.key, e)
		}
	}
}

// ImportClientState seeds the per-op table for one queue entry imported
// from another rack, on this member, replacing any tombstone of the key. A
// granted entry caches a reconstructed grant header — acquire retransmits
// are answered from it, the release path runs the data plane exactly once,
// and the sweep re-sends the grant until its release — and a waiter is
// pending so its eventual grant is delivered. hdr is the original acquire
// header carried by the migration (client address stamped); leaseNs is the
// expiry already rebased to this rack's clock.
// Installed on every chain member before the map flip exposes the shard,
// so the tables are replicated like any sequenced op's effects.
func (s *Switch) ImportClientState(granted bool, hdr *wire.Header, leaseNs int64) {
	addr := clientAddrOf(hdr)
	key := keyOf(hdr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !granted {
		s.setPending(key, addr)
		return
	}
	e := s.liveOp(key)
	e.phase, e.addr, e.sentSweep, e.hdr = phaseGranted, addr, s.sweeps, *hdr
	e.hdr.Op = wire.OpGrant
	e.hdr.Flags = 0
	e.hdr.LeaseNs = leaseNs
}
