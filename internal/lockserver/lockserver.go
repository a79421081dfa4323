// Package lockserver implements the NetLock lock server (paper §3.2, §4.3,
// §5): the server-side half of the switch-server co-design.
//
// A lock server plays two roles:
//
//  1. For locks *not* resident in the switch ("unpopular" locks), it is a
//     full centralized lock manager: it queues, grants and releases
//     shared/exclusive requests with the same FCFS-plus-priorities
//     semantics as the switch data plane, so clients cannot tell where a
//     lock lives.
//
//  2. For switch-resident locks whose switch queue (q1) overflowed, it
//     buffers — without processing — the overflow-marked requests in a
//     per-(lock, priority) queue q2, and pushes them back into q1 when the
//     switch signals that q1 drained (OpPushNotify). Requests are granted
//     and dequeued only by q1; requests are appended only to q2 while
//     overflow mode lasts, preserving single-queue FIFO order (§4.3).
//
// The clear-overflow race: the paper does not specify what happens when a
// marked request is in flight from the switch while the server's final push
// (which clears the switch's overflow bit) is in flight the other way. This
// implementation closes it: a marked request arriving while the server is
// not buffering is bounced back to the switch as an OpPush. If the switch
// has space, the request is enqueued (bounded order skew within the race
// window); if the switch queue is full, the request comes back
// overflow-marked and is buffered, and the next q1 drain will push it.
//
// The server is deliberately free of artificial capacity limits — servers
// have plenty of DRAM and are CPU-bound (§4.3); the testbed models the CPU
// with per-core service rates.
package lockserver

import (
	"fmt"

	"netlock/internal/obs"
	"netlock/internal/wire"
)

// Action classifies a packet emitted by the server.
type Action uint8

const (
	// ActGrant sends a grant notification to the client.
	ActGrant Action = iota + 1
	// ActFetch forwards a grant to the database server (one-RTT mode).
	ActFetch
	// ActExpired reports a holder force-released by the lease sweep
	// (CtrlScanExpired). Routers ignore it; verification harnesses consume
	// it to keep their holder accounting aligned with the server's.
	ActExpired
	// ActPush sends a buffered request (or a clear-overflow control
	// message) to the switch. It is also used to forward requests that
	// arrived for a lock this server no longer owns — packets that were in
	// flight while the lock moved into the switch — back to the switch,
	// which now owns them.
	ActPush
	// ActReject bounces a request to the client: the server's bounded
	// buffer (Config.MaxBuffer) is full. The wire header carries OpReject
	// with FlagOverflow to distinguish it from a quota reject.
	ActReject
)

var actionNames = map[Action]string{
	ActGrant: "grant", ActFetch: "fetch", ActExpired: "expired",
	ActPush: "push", ActReject: "reject",
}

// String returns the action name.
func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Emit is one packet produced while processing an input packet.
type Emit struct {
	Action Action
	Hdr    wire.Header
}

// Config parameterizes a lock server.
type Config struct {
	// Priorities must match the switch's priority bank count.
	Priorities int
	// DefaultLeaseNs stamps grants without an explicit lease request.
	// Zero disables lease stamping.
	DefaultLeaseNs int64
	// Now supplies time for leases; defaults to constant zero.
	Now func() int64
	// MaxBuffer, when positive, bounds each per-(lock, priority) queue and
	// overflow buffer (q2). A request arriving at a full buffer is rejected
	// back to the client (ActReject, OpReject+FlagOverflow) instead of
	// queued. Zero keeps the paper's DRAM-is-plentiful default: unbounded.
	MaxBuffer int
	// Obs, when non-nil, receives the server's grant counters and
	// queue-wait latency samples.
	Obs *obs.Stripe
}

// entry is one queued request: the original acquire header plus its stamped
// lease expiry, whether it has been granted, and its arrival time (for the
// queue-wait measurement; stamped only when Obs is enabled).
type entry struct {
	hdr     wire.Header
	lease   int64
	arrived int64
	granted bool
}

// lockObj is the server-side state of one lock.
type lockObj struct {
	// owned is true when this server processes the lock (the lock is not
	// switch-resident); false when the server only buffers overflow.
	owned bool
	// queues hold waiting-and-granted requests per priority; the granted
	// requests form a prefix of each queue, exactly as in the switch.
	queues [][]entry
	excl   []int // exclusive entries per priority queue
	wait   []int // waiting (never-granted) entries per priority queue
	held   int
	heldX  bool
	// q2 buffers overflow-marked requests per priority (switch-resident
	// locks only).
	q2        [][]entry
	buffering []bool
	// measurement
	reqs    uint64
	peak    uint64
	q2peak  uint64
	current uint64 // current concurrent requests (owned locks)
}

// Server is one NetLock lock server. It is not safe for concurrent use; the
// testbed is single-threaded and internal/transport serializes calls.
type Server struct {
	cfg   Config
	locks map[uint32]*lockObj
	emits []Emit
	stats Stats
	// draining marks a server being emptied by the rebalancer: requests for
	// locks it does not own are rejected with OpReject+FlagMoved instead of
	// adopted or buffered (see CtrlSetDraining).
	draining bool
}

// Stats counts server activity for the experiment breakdowns.
type Stats struct {
	Acquires        uint64
	Releases        uint64
	GrantsImmediate uint64
	GrantsQueued    uint64
	Queued          uint64
	Buffered        uint64 // overflow-marked requests appended to q2
	Bounced         uint64 // marked requests bounced back as pushes
	Pushed          uint64 // q2 entries pushed to the switch
	OvfClears       uint64
	ExpiredReleases uint64
	Rejected        uint64 // requests bounced off a full bounded buffer
	// ForwardedToSwitch counts requests that arrived for locks this server
	// no longer owns (in flight across a migration) and were sent back.
	ForwardedToSwitch uint64
	// DupAcquires counts acquires whose txn ID was already queued or
	// granted for the same lock: retransmits (or chain-replication
	// re-forwards across an epoch change) answered without enqueuing a
	// ghost entry. The release protocol dequeues a queue head per release,
	// so a duplicate entry would desynchronize grants from releases.
	DupAcquires uint64
	// DupReleases counts txn-stamped releases that matched no granted
	// entry: retransmits (or chain re-forwards) of a release that was
	// already applied. The switch re-forwards a release for as long as
	// its dedup entry is alive, so duplicates are expected no-ops.
	DupReleases uint64
	// MovedRejects counts requests rejected with FlagMoved because this
	// server is draining and does not own the lock: the client re-resolves
	// through the switch and retries.
	MovedRejects uint64
}

// New creates a lock server.
func New(cfg Config) *Server {
	if cfg.Priorities <= 0 || cfg.Priorities > 8 {
		panic("lockserver: Priorities must be in [1,8]")
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return 0 }
	}
	return &Server{cfg: cfg, locks: make(map[uint32]*lockObj)}
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats { return s.stats }

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) lock(id uint32) *lockObj {
	lo, ok := s.locks[id]
	if !ok {
		lo = &lockObj{
			owned:     true, // new locks start server-owned (§4.3)
			queues:    make([][]entry, s.cfg.Priorities),
			excl:      make([]int, s.cfg.Priorities),
			wait:      make([]int, s.cfg.Priorities),
			q2:        make([][]entry, s.cfg.Priorities),
			buffering: make([]bool, s.cfg.Priorities),
		}
		s.locks[id] = lo
	}
	return lo
}

func (s *Server) bankFor(p uint8) int {
	if int(p) >= s.cfg.Priorities {
		return s.cfg.Priorities - 1
	}
	return int(p)
}

func (s *Server) emit(a Action, h wire.Header) {
	s.emits = append(s.emits, Emit{Action: a, Hdr: h})
}

// rejectMoved bounces a request with the "moved" redirect: this server is
// draining and does not (or must not come to) own the lock. The client
// retries immediately through the switch rather than backing off.
func (s *Server) rejectMoved(h *wire.Header) {
	s.stats.MovedRejects++
	r := *h
	r.Op = wire.OpReject
	r.Flags &^= wire.FlagOverflow | wire.FlagBounced
	r.Flags |= wire.FlagMoved
	s.emit(ActReject, r)
}

// reject bounces a request off a full bounded buffer (Config.MaxBuffer).
func (s *Server) reject(h *wire.Header) {
	s.stats.Rejected++
	if o := s.cfg.Obs; o != nil {
		o.Inc(obs.CtrRejects)
	}
	r := *h
	r.Op = wire.OpReject
	r.Flags |= wire.FlagOverflow
	s.emit(ActReject, r)
}

// ProcessPacket handles one NetLock packet addressed to this server and
// returns the emitted packets. The returned slice is valid until the next
// call.
func (s *Server) ProcessPacket(h *wire.Header) []Emit {
	s.emits = s.emits[:0]
	switch h.Op {
	case wire.OpAcquire:
		if h.Flags&wire.FlagOverflow != 0 {
			s.bufferOverflow(h)
		} else {
			s.acquire(h)
		}
	case wire.OpRelease:
		s.release(h)
	case wire.OpPushNotify:
		s.pushNotify(h)
	}
	return s.emits
}

// findTxn scans the lock's queues and overflow buffer for an entry carrying
// txn and reports whether it exists and whether it is currently granted.
func (lo *lockObj) findTxn(txn uint64) (found, granted bool) {
	if txn == wire.TxnNone {
		return false, false
	}
	for b := range lo.queues {
		for i := range lo.queues[b] {
			if lo.queues[b][i].hdr.TxnID == txn {
				return true, lo.queues[b][i].granted
			}
		}
		for i := range lo.q2[b] {
			if lo.q2[b][i].hdr.TxnID == txn {
				return true, false
			}
		}
	}
	return false, false
}

// dedup answers a duplicate acquire: a granted duplicate re-emits the grant
// (the original may have been lost with a failed chain tail); a waiting
// duplicate is dropped. Returns true when h was a duplicate.
func (s *Server) dedup(lo *lockObj, h *wire.Header) bool {
	found, granted := lo.findTxn(h.TxnID)
	if !found {
		return false
	}
	s.stats.DupAcquires++
	if granted {
		lease := h.LeaseNs
		if lease == 0 && s.cfg.DefaultLeaseNs != 0 {
			lease = s.cfg.Now() + s.cfg.DefaultLeaseNs
		} else if lease != 0 {
			lease = s.cfg.Now() + lease
		}
		s.emitGrant(*h, lease)
	}
	return true
}

// acquire processes a request for a server-owned lock. Requests for locks
// that moved to the switch while this packet was in flight are forwarded
// back to the switch; exactly one party owns a lock at any instant, so the
// forwarding converges.
func (s *Server) acquire(h *wire.Header) {
	s.stats.Acquires++
	if s.draining {
		if lo, ok := s.locks[h.LockID]; !ok || !lo.owned {
			s.rejectMoved(h)
			return
		}
	}
	lo := s.lock(h.LockID)
	if !lo.owned {
		s.stats.ForwardedToSwitch++
		s.emit(ActPush, *h)
		return
	}
	if s.dedup(lo, h) {
		return
	}
	b := s.bankFor(h.Priority)
	if s.cfg.MaxBuffer > 0 && len(lo.queues[b]) >= s.cfg.MaxBuffer {
		s.reject(h)
		return
	}
	lo.reqs++
	lo.current++
	if lo.current > lo.peak {
		lo.peak = lo.current
	}
	lease := h.LeaseNs
	if lease == 0 && s.cfg.DefaultLeaseNs != 0 {
		lease = s.cfg.Now() + s.cfg.DefaultLeaseNs
	} else if lease != 0 {
		lease = s.cfg.Now() + lease
	}
	excl := h.Mode == wire.Exclusive
	// Grant rule, identical to the switch data plane: grant if the lock is
	// free, or if the request is shared, no exclusive request holds the
	// lock or waits at the same or higher priority, and its own queue holds
	// no waiting entry (grants stay a FIFO prefix of each queue, so the
	// head-dequeue release protocol stays aligned with the granted set).
	nexclHigher := 0
	for hb := 0; hb <= b; hb++ {
		nexclHigher += lo.excl[hb]
	}
	granted := lo.held == 0 || (!lo.heldX && !excl && nexclHigher == 0 && lo.wait[b] == 0)
	ent := entry{hdr: *h, lease: lease, granted: granted}
	if !granted && s.cfg.Obs.Enabled() {
		ent.arrived = s.cfg.Now()
	}
	lo.queues[b] = append(lo.queues[b], ent)
	if excl {
		lo.excl[b]++
	}
	if granted {
		lo.held++
		lo.heldX = excl
		s.stats.GrantsImmediate++
		s.emitGrant(*h, lease)
	} else {
		lo.wait[b]++
		s.stats.Queued++
	}
}

// emitGrant produces the grant (or one-RTT fetch) for a request header.
func (s *Server) emitGrant(h wire.Header, lease int64) {
	if o := s.cfg.Obs; o != nil {
		o.Inc(obs.CtrGrants)
		o.TenantGrant(h.TenantID)
		if o.Tracing() {
			o.Trace(obs.TraceEvent{Event: obs.EvGrant, LockID: h.LockID,
				TxnID: h.TxnID, Tenant: h.TenantID})
		}
	}
	h.LeaseNs = lease
	if h.Flags&wire.FlagOneRTT != 0 {
		h.Op = wire.OpFetch
		s.emit(ActFetch, h)
		return
	}
	h.Op = wire.OpGrant
	s.emit(ActGrant, h)
}

// release processes a release for a server-owned lock: dequeue the
// releasing entry from the request's priority queue and grant followers,
// mirroring Algorithm 2. Txn-stamped releases match their own entry, so a
// retransmitted (or chain re-forwarded) release is a counted no-op rather
// than dequeuing a different holder; TxnNone releases keep the paper's
// blind head-dequeue.
func (s *Server) release(h *wire.Header) {
	s.stats.Releases++
	lo, ok := s.locks[h.LockID]
	if !ok {
		return // never-seen lock: spurious release
	}
	if !lo.owned {
		// In flight across a move: the switch owns the lock now.
		s.stats.ForwardedToSwitch++
		s.emit(ActPush, *h)
		return
	}
	b := s.bankFor(h.Priority)
	q := lo.queues[b]
	if len(q) == 0 {
		if h.TxnID != wire.TxnNone {
			s.stats.DupReleases++
		}
		return
	}
	// Grants form a FIFO prefix of each queue, so a matched granted entry
	// is always within the prefix and removing it preserves the ordering.
	i := 0
	if h.TxnID != wire.TxnNone {
		i = -1
		for j := range q {
			if q[j].hdr.TxnID == h.TxnID {
				i = j
				break
			}
		}
		if i < 0 || !q[i].granted {
			s.stats.DupReleases++
			return
		}
	}
	released := q[i]
	lo.queues[b] = append(q[:i], q[i+1:]...)
	if released.hdr.Mode == wire.Exclusive {
		lo.excl[b]--
	}
	if !released.granted {
		// Should be unreachable: grants form a FIFO prefix of each queue,
		// so a release always dequeues a granted head. Keep the counter
		// consistent regardless.
		lo.wait[b]--
	}
	if lo.held > 0 {
		lo.held--
	}
	if lo.current > 0 {
		lo.current--
	}
	if lo.held > 0 {
		return // shared holders remain (Figure 6, shared -> shared)
	}
	lo.heldX = false
	// Lock free: grant the head of the highest-priority non-empty queue,
	// and the following run of shared requests if the head is shared.
	for gb := 0; gb < s.cfg.Priorities; gb++ {
		gq := lo.queues[gb]
		if len(gq) == 0 {
			continue
		}
		if gq[0].hdr.Mode == wire.Exclusive {
			lo.held = 1
			lo.heldX = true
			gq[0].granted = true
			lo.wait[gb]--
			s.stats.GrantsQueued++
			s.observeQueueWait(&gq[0])
			s.emitGrant(gq[0].hdr, gq[0].lease)
			return
		}
		for i := range gq {
			if gq[i].hdr.Mode == wire.Exclusive {
				break
			}
			gq[i].granted = true
			lo.wait[gb]--
			lo.held++
			s.stats.GrantsQueued++
			s.observeQueueWait(&gq[i])
			s.emitGrant(gq[i].hdr, gq[i].lease)
		}
		return
	}
}

// observeQueueWait records how long a queued entry waited before its grant
// (the paper's server queueing delay). Entries granted on arrival never
// record: e.arrived is stamped only for requests that actually waited.
func (s *Server) observeQueueWait(e *entry) {
	if e.arrived == 0 {
		return
	}
	s.cfg.Obs.Observe(obs.StageServerQueue, s.cfg.Now()-e.arrived)
}

// bufferOverflow handles an overflow-marked request for a switch-resident
// lock: buffer it in q2, or bounce it if the server believes overflow mode
// has ended (see the package comment for the race this closes).
func (s *Server) bufferOverflow(h *wire.Header) {
	if s.draining {
		// A draining server must not accumulate new overflow state: the
		// buffered request would be stranded when routing flips to the
		// drain target. The moved reject sends the client back through the
		// switch, which re-resolves once the redirect is installed.
		s.rejectMoved(h)
		return
	}
	lo, existed := s.locks[h.LockID]
	if !existed {
		// First contact via an overflow mark: the mark is authoritative
		// evidence the switch owns this lock, so the fresh lockObj must
		// not default to server-owned. (A replacement server after a
		// failover sees exactly this; defaulting to owned would split
		// ownership with the switch and double-grant.)
		lo = s.lock(h.LockID)
		lo.owned = false
	}
	b := s.bankFor(h.Priority)
	if lo.owned {
		// Stale overflow mark: the packet raced a switch-to-server move
		// and this server owns the lock again; process as a normal
		// acquire.
		cp := *h
		cp.Flags &^= wire.FlagOverflow | wire.FlagBounced
		s.acquire(&cp)
		return
	}
	if found, _ := lo.findTxn(h.TxnID); found {
		// Already buffered (or queued): a retransmitted overflow mark must
		// not create a second q2 entry for the same request.
		s.stats.DupAcquires++
		return
	}
	if !lo.buffering[b] && h.Flags&wire.FlagBounced == 0 {
		// Possible stale mark racing our clear: bounce once as a push.
		s.stats.Bounced++
		p := *h
		p.Op = wire.OpPush
		p.Flags &^= wire.FlagOverflow
		p.Flags |= wire.FlagBounced
		s.emit(ActPush, p)
		return
	}
	if s.cfg.MaxBuffer > 0 && len(lo.q2[b]) >= s.cfg.MaxBuffer {
		s.reject(h)
		return
	}
	lo.buffering[b] = true
	e := *h
	e.Flags &^= wire.FlagOverflow | wire.FlagBounced
	e.Op = wire.OpAcquire
	lo.q2[b] = append(lo.q2[b], entry{hdr: e})
	s.stats.Buffered++
	if d := uint64(len(lo.q2[b])); d > lo.q2peak {
		lo.q2peak = d
	}
}

// pushNotify handles the switch's "q1 drained" signal: push up to the
// advertised free slots from q2, marking the final push when q2 drains so
// the switch leaves overflow mode.
func (s *Server) pushNotify(h *wire.Header) {
	lo, ok := s.locks[h.LockID]
	b := s.bankFor(h.Priority)
	free := h.LeaseNs // free q1 slots, as advertised by the switch
	if !ok || lo.owned || free <= 0 {
		return
	}
	q2 := lo.q2[b]
	n := int64(len(q2))
	if n > free {
		n = free
	}
	for i := int64(0); i < n; i++ {
		p := q2[i].hdr
		p.Op = wire.OpPush
		if i == n-1 && n == int64(len(q2)) && n < free {
			// q2 drained and q1 will not be full: leave overflow mode.
			p.Flags |= wire.FlagOverflow
			lo.buffering[b] = false
			s.stats.OvfClears++
		}
		s.stats.Pushed++
		s.emit(ActPush, p)
	}
	lo.q2[b] = q2[n:]
	if len(lo.q2[b]) == 0 && n == 0 {
		// Nothing buffered at all: clear overflow mode with a control
		// message carrying no request.
		lo.buffering[b] = false
		s.stats.OvfClears++
		clear := *h
		clear.Op = wire.OpPush
		clear.TxnID = wire.TxnNone
		clear.Flags = wire.FlagOverflow
		s.emit(ActPush, clear)
	}
}
