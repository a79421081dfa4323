package transport

import (
	"fmt"
	"net/netip"
	"time"

	"netlock/internal/obs"
	"netlock/internal/wire"
)

// NetChain-style chain replication of the switch data plane.
//
// A chain is 2-3 Switch nodes holding identical replicas of the switch
// state: the data-plane program (queues, grants, overflow marks) and the
// transport's per-op dedup table (each (lock, txn) pending, granted,
// releasing or done). The protocol keeps them identical by replicating
// *decisions*, not state: the head is the single sequencer — every
// state-mutating op (client acquires and releases after the head's dedup
// vetting, lock-server responses, the lease sweep's synthesized releases)
// receives a sequence number and propagates head→tail in wire.ChainMsg
// envelopes over the reliable in-rack fabric. Every member applies the same op stream through
// Switch.applyOp, which is deterministic given the stream; only the tail's
// sends are externally visible (grants to clients, forwards to lock
// servers). A client therefore observes a grant only after every member
// has recorded it: killing any member never loses a granted lock, and the
// replicated dedup table means a retransmitted acquire or release is
// answered the same way by whichever member is head after a failure —
// never double-granted and never double-released.
//
// Wall-clock divergence is kept out of the replicated stream: quota
// metering runs once at the head (ChainRole.MeterAtHead +
// switchdp.CtrlMeterAdmit; rejected acquires are never sequenced) and only
// the head scans for expired leases, sequencing the resulting releases
// like any other op. Lease *values* stamped by each replica differ
// harmlessly: they are never compared across members.
//
// Reconfiguration is epoch-fenced. The controller (internal/ctrlplane)
// closes the failed member, bumps the epoch, pushes new roles with
// ChainConfigure, heals sequence gaps with ChainReplay, re-points the lock
// servers at the (possibly new) head, and the promoted head broadcasts
// wire.OpEpoch to every client it knows from its tables. Members drop
// envelopes from other epochs; non-head members relay mis-addressed
// external ops to the head (ChainRelay, never re-relayed) and redirect
// clients with OpEpoch.
//
// Relaxations vs NetChain (documented in DESIGN.md §12): replication runs
// over the same reliable in-rack assumption the q1/q2 protocol already
// makes, with a nack-and-replay escape hatch (a gap triggers an immediate
// wire.ChainNack carrying the receiver's applied prefix, and the sender
// re-sends its log above it; senders also re-send a stalled log from the
// sweep) instead of NetChain's per-link FIFO guarantee; and chain frames
// ride the normal UDP sockets rather than data-plane segment routing. As
// in NetChain, each op crosses each link once while no frame is lost:
// the tail's acks only prune logs, they never trigger a re-send.

// chainState is a Switch's replication role. The zero value is completed
// by NewSwitch to a single-member chain (head and tail, epoch 0), which
// behaves exactly like an unreplicated switch. Guarded by Switch.mu.
type chainState struct {
	epoch uint64
	head  bool
	tail  bool
	// succ is the next chain member; invalid on the tail.
	succ netip.AddrPort
	// headAP is the current head; invalid on the head itself.
	headAP netip.AddrPort
	// peers are the other chain members (the tail acks applied prefixes to
	// all of them).
	peers []netip.AddrPort
	// seq is the last sequence number this member applied; the head also
	// assigns new numbers from it.
	seq uint64
	// log holds applied-but-unacked ops for replay to the successor. The
	// tail keeps none: its apply is the external commit.
	log []wire.ChainMsg
	// meterAtHead moves per-tenant quota decisions out of the (replicated,
	// clock-dependent) data plane into the head's ingress.
	meterAtHead bool
	// lastMove is the sweep count at the last log append to an empty log,
	// prune or heal, pacing the sweep's stalled-log re-send.
	lastMove uint64
	gapDrops uint64
	nacks    uint64
	replayed uint64
	// egDests buffers outgoing chain records per destination so one
	// ingress datagram's worth of sequenced ops leaves in one chain
	// datagram — chain traffic batches at the same grain as client
	// frames instead of costing one datagram per op.
	egDests []chainDest
}

// chainDest is one buffered chain egress destination (successor, peers,
// or the head for relays — at most a handful per member).
type chainDest struct {
	to  netip.AddrPort
	buf []byte
}

// chainHealNs paces the sweep's re-send of an un-acked log: the in-rack
// fabric is reliable but a full inbox can still drop a frame. A lost frame
// followed by more traffic is nacked at once; the sweep heals a frame lost
// at the end of a burst (no later op reveals the gap) or a lost nack.
const chainHealNs = int64(50 * time.Millisecond)

// ChainRole is the chain membership a controller pushes to one Switch with
// ChainConfigure.
type ChainRole struct {
	// Epoch fences the configuration: envelopes from other epochs are
	// dropped.
	Epoch uint64
	// Head sequences external ingress; Tail emits externally. A
	// single-member chain is both.
	Head, Tail bool
	// Succ is the next member's address ("" on the tail).
	Succ string
	// HeadAddr is the current head's address ("" on the head itself);
	// non-head members relay mis-addressed ops there.
	HeadAddr string
	// Peers are every other member's address (the tail sends applied-prefix
	// acks to all of them).
	Peers []string
	// MeterAtHead makes the head (and any later-promoted head) apply
	// per-tenant quotas at ingress via switchdp.CtrlMeterAdmit. Set
	// together with CtrlSetMeterBypass on every member's data plane.
	MeterAtHead bool
}

// ChainInfo is a point-in-time view of a member's replication state.
type ChainInfo struct {
	Epoch   uint64
	Applied uint64 // last applied sequence number
	LogLen  int    // applied-but-unacked ops held for replay
	Head    bool
	Tail    bool
	// GapDrops counts envelopes dropped for arriving ahead of a gap; each
	// triggered a nack and was healed by replay.
	GapDrops uint64
	// Nacks counts gap nacks sent (at most one per ingress frame).
	Nacks uint64
	// Replayed counts op records re-sent to the successor: on its nack,
	// from the heal sweep, or by ChainReplay.
	Replayed uint64
}

// ChainConfigure installs a new chain role, fencing the member to
// r.Epoch. Promotion to head broadcasts an OpEpoch announcement to every
// client found in the replicated tables so in-flight traffic re-targets.
func (s *Switch) ChainConfigure(r ChainRole) error {
	var succ, headAP netip.AddrPort
	var err error
	if r.Succ != "" {
		if succ, err = resolveAddrPort(r.Succ); err != nil {
			return fmt.Errorf("transport: resolve chain successor %q: %w", r.Succ, err)
		}
	}
	if r.HeadAddr != "" {
		if headAP, err = resolveAddrPort(r.HeadAddr); err != nil {
			return fmt.Errorf("transport: resolve chain head %q: %w", r.HeadAddr, err)
		}
	}
	peers := make([]netip.AddrPort, 0, len(r.Peers))
	for _, p := range r.Peers {
		ap, err := resolveAddrPort(p)
		if err != nil {
			return fmt.Errorf("transport: resolve chain peer %q: %w", p, err)
		}
		peers = append(peers, ap)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	promoted := r.Head && !s.chain.head
	s.chain.epoch = r.Epoch
	s.chain.head = r.Head
	s.chain.tail = r.Tail
	s.chain.succ = succ
	s.chain.headAP = headAP
	s.chain.peers = peers
	s.chain.meterAtHead = r.MeterAtHead
	if r.Tail {
		// The tail's apply is the commit; any log carried over from a
		// previous role has nobody left to replay to.
		s.chain.log = s.chain.log[:0]
	}
	if promoted {
		s.announceEpochLocked()
	}
	return nil
}

// ChainStatus returns the member's replication state.
func (s *Switch) ChainStatus() ChainInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ChainInfo{
		Epoch:    s.chain.epoch,
		Applied:  s.chain.seq,
		LogLen:   len(s.chain.log),
		Head:     s.chain.head,
		Tail:     s.chain.tail,
		GapDrops: s.chain.gapDrops,
		Nacks:    s.chain.nacks,
		Replayed: s.chain.replayed,
	}
}

// ChainReplay re-sends every logged op with sequence number above from to
// this member's successor, re-stamped with the current epoch. The
// controller calls it after reconfiguration to heal the gap between a
// member and its (possibly new) successor; members also trigger it
// spontaneously when a successor nacks a gap.
func (s *Switch) ChainReplay(from uint64) {
	s.mu.Lock()
	s.replayLocked(from)
	s.flushChain()
	s.mu.Unlock()
}

func (s *Switch) replayLocked(from uint64) {
	if !s.chain.succ.IsValid() {
		return
	}
	for i := range s.chain.log {
		m := &s.chain.log[i]
		if m.Seq <= from {
			continue
		}
		m.Epoch = s.chain.epoch
		s.sendChain(m, s.chain.succ)
		s.chain.replayed++
		s.o.Inc(obs.CtrChainReplayed)
	}
}

// sequence assigns the next sequence number to h, applies it locally, and
// propagates it down the chain. Head only. Caller holds s.mu.
func (s *Switch) sequence(origin wire.ChainOrigin, h *wire.Header) {
	s.chain.seq++
	m := wire.ChainMsg{Kind: wire.ChainOp, Origin: origin,
		Epoch: s.chain.epoch, Seq: s.chain.seq, Hdr: *h}
	if !s.chain.tail {
		s.logAppend(&m)
	}
	s.applyOp(origin, h)
	if s.chain.succ.IsValid() {
		s.sendChain(&m, s.chain.succ)
	}
}

// handleChain processes one ingress chain datagram: a concatenation of
// self-delimiting chain records (acks and nacks are ChainHdrLen, ops and
// relays ChainOpLen). Acks only prune the replay log. Only a nack from the
// successor re-sends it, from the nacked prefix up. Nacks do not prune:
// a mid member's applied prefix is not yet committed at the tail, and
// waitChainCommitted reads a pruned log as tail-committed.
// Per-frame effects are coalesced — one tail ack covers every op applied
// from the frame, one nack (sent after the frame, so it counts any gap
// the frame itself filled) answers any number of gap records, and
// incoming acks and nacks are each folded to their highest prefix — so
// batched chain traffic never amplifies. Caller holds s.mu.
func (s *Switch) handleChain(data []byte, from netip.AddrPort) {
	applied, gap, nacked := false, false, false
	var ackMax, nackMax uint64
	for len(data) >= wire.ChainHdrLen {
		var m wire.ChainMsg
		if m.DecodeFromBytes(data) != nil {
			break
		}
		data = data[m.Len():]
		// Relays carry external ops, valid in any epoch; the
		// replication records are fenced to ours.
		if m.Epoch != s.chain.epoch && m.Kind != wire.ChainRelay {
			continue
		}
		switch m.Kind {
		case wire.ChainAck:
			ackMax = max(ackMax, m.Seq)
		case wire.ChainNack:
			if from == s.chain.succ {
				nacked = true
				nackMax = max(nackMax, m.Seq)
			}
		case wire.ChainRelay:
			// A stale member forwarded external ingress to us. Only the
			// head sequences; relays are never re-relayed (bounds routing
			// loops while a reconfiguration converges).
			if !s.chain.head {
				continue
			}
			s.headIngress(m.Origin, &m.Hdr, clientAddrOf(&m.Hdr))
		case wire.ChainOp:
			if s.chain.head {
				continue
			}
			switch {
			case m.Seq <= s.chain.seq:
				continue // duplicate (replay overlap)
			case m.Seq != s.chain.seq+1:
				// Gap: drop the op and nack our applied prefix below so
				// the sender replays the missing range in order.
				s.chain.gapDrops++
				gap = true
				continue
			}
			s.chain.seq = m.Seq
			if !s.chain.tail {
				s.logAppend(&m)
			}
			h := m.Hdr
			s.applyOp(m.Origin, &h)
			applied = true
			if !s.chain.tail && s.chain.succ.IsValid() {
				s.sendChain(&m, s.chain.succ)
			}
		}
	}
	if gap {
		s.chain.nacks++
		s.o.Inc(obs.CtrChainNacks)
		s.sendPrefix(wire.ChainNack, from)
	}
	s.pruneLog(ackMax)
	if nacked {
		s.replayLocked(nackMax)
	}
	if applied && s.chain.tail {
		for _, p := range s.chain.peers {
			s.sendPrefix(wire.ChainAck, p)
		}
	}
}

// relayToHead handles external ingress on a non-head member: wrap the op
// for the head (which alone sequences) and, for client senders, announce
// the current head so the client re-targets. Caller holds s.mu.
func (s *Switch) relayToHead(h *wire.Header, from netip.AddrPort) {
	if h.Op == wire.OpEpoch {
		return
	}
	origin := wire.OriginClient
	if s.fromServer(from) {
		origin = wire.OriginServer
	} else {
		s.stampClient(h, from)
		if s.chain.headAP.IsValid() {
			s.sendEpochTo(from, s.chain.headAP)
		}
	}
	if s.chain.headAP.IsValid() {
		m := wire.ChainMsg{Kind: wire.ChainRelay, Origin: origin,
			Epoch: s.chain.epoch, Hdr: *h}
		s.sendChain(&m, s.chain.headAP)
	}
}

// announceEpochLocked broadcasts an OpEpoch announcement naming this
// member as head to every client address in the replicated tables. Caller
// holds s.mu.
func (s *Switch) announceEpochLocked() {
	if !s.selfAP.IsValid() {
		return
	}
	seen := make(map[netip.AddrPort]struct{})
	send := func(to netip.AddrPort) {
		if !to.IsValid() {
			return
		}
		if _, dup := seen[to]; dup {
			return
		}
		seen[to] = struct{}{}
		s.sendEpochTo(to, s.selfAP)
	}
	for _, e := range s.live {
		send(e.addr)
		if e.phase == phaseReleasing {
			send(e.ackTo)
		}
	}
	s.eg.flushAll()
}

// sendEpochTo sends one OpEpoch announcement (TxnID carries the epoch, the
// client address fields carry the head) to a client. Caller holds s.mu.
func (s *Switch) sendEpochTo(to, head netip.AddrPort) {
	ann := wire.Header{Op: wire.OpEpoch, TxnID: s.chain.epoch,
		ClientIP: head.Addr().Unmap(), ClientPort: head.Port()}
	s.eg.send(&ann, to)
}

// chainHeal re-sends an un-acked log that has not moved for healSweeps
// sweeps. Caller holds s.mu.
func (s *Switch) chainHeal(healSweeps uint64) {
	if len(s.chain.log) == 0 || !s.chain.succ.IsValid() || s.sweeps-s.chain.lastMove < healSweeps {
		return
	}
	s.chain.lastMove = s.sweeps
	s.replayLocked(s.chain.log[0].Seq - 1)
}

func (s *Switch) logAppend(m *wire.ChainMsg) {
	if len(s.chain.log) == 0 {
		s.chain.lastMove = s.sweeps
	}
	s.chain.log = append(s.chain.log, *m)
}

func (s *Switch) pruneLog(upto uint64) {
	log := s.chain.log
	i := 0
	for i < len(log) && log[i].Seq <= upto {
		i++
	}
	if i == 0 {
		return
	}
	n := copy(log, log[i:])
	s.chain.log = log[:n]
	s.chain.lastMove = s.sweeps
}

// sendChain queues one chain record for to. Records are concatenated per
// destination and leave in one datagram at the next flushChain — the end
// of the ingress datagram, sweep, or replay that produced them. Caller
// holds s.mu.
func (s *Switch) sendChain(m *wire.ChainMsg, to netip.AddrPort) {
	d := s.chainDest(to)
	if len(d.buf)+wire.ChainOpLen > maxPacket {
		s.conn.WriteToUDPAddrPort(d.buf, d.to)
		d.buf = d.buf[:0]
	}
	d.buf = m.AppendTo(d.buf)
}

func (s *Switch) chainDest(to netip.AddrPort) *chainDest {
	for i := range s.chain.egDests {
		if s.chain.egDests[i].to == to {
			return &s.chain.egDests[i]
		}
	}
	s.chain.egDests = append(s.chain.egDests, chainDest{to: to})
	return &s.chain.egDests[len(s.chain.egDests)-1]
}

// flushChain sends every buffered chain record. Caller holds s.mu.
func (s *Switch) flushChain() {
	for i := range s.chain.egDests {
		d := &s.chain.egDests[i]
		if len(d.buf) == 0 {
			continue
		}
		s.conn.WriteToUDPAddrPort(d.buf, d.to)
		d.buf = d.buf[:0]
	}
}

// sendPrefix queues an ack or nack carrying this member's applied prefix.
// Caller holds s.mu.
func (s *Switch) sendPrefix(kind wire.ChainKind, to netip.AddrPort) {
	m := wire.ChainMsg{Kind: kind, Epoch: s.chain.epoch, Seq: s.chain.seq}
	s.sendChain(&m, to)
}

// stampClient records the requester's address inside the header so chain
// replicas (which never see the original datagram) reconstruct the same
// table entries as the head.
func (s *Switch) stampClient(h *wire.Header, from netip.AddrPort) {
	if from.IsValid() {
		h.ClientIP = from.Addr().Unmap()
		h.ClientPort = from.Port()
	}
}

// clientAddrOf reconstructs the requester's address stamped in a header.
// Invalid when the header was never stamped (port zero).
func clientAddrOf(h *wire.Header) netip.AddrPort {
	if h.ClientPort == 0 || !h.ClientIP.IsValid() || h.ClientIP.IsUnspecified() {
		return netip.AddrPort{}
	}
	return netip.AddrPortFrom(h.ClientIP.Unmap(), h.ClientPort)
}
