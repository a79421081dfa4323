package cluster

import (
	"netlock/internal/core"
	"netlock/internal/eventsim"
	"netlock/internal/lockserver"
	"netlock/internal/obs"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// NetLockOptions configures the NetLock service adapter.
type NetLockOptions struct {
	// Manager is the NetLock instance (switch + lock servers).
	Manager *core.Manager
	// SweepEveryNs runs the lease sweep control loop (0: disabled).
	SweepEveryNs int64
	// AllocEveryNs runs the memory-management control loop (0: disabled).
	AllocEveryNs int64
	// Allocator overrides the placement policy (nil: optimal knapsack).
	Allocator core.Allocator
	// Obs, when non-nil, records end-to-end acquire latency in virtual
	// testbed time (the switch and servers record their own stages through
	// core.Config.Obs).
	Obs *obs.Stripe
}

// NetLockService drives a core.Manager on the testbed: it moves packets
// between clients, the switch data plane, the lock servers and the database
// station with the calibrated delays, and runs the control loops.
type NetLockService struct {
	tb   *Testbed
	opts NetLockOptions
	mgr  *core.Manager
	// cores[s][c] is lock server s's core c.
	cores   [][]*eventsim.Station
	pending map[pendKey]*pendingAcq
}

type pendKey struct {
	lock uint32
	txn  uint64
}

type pendingAcq struct {
	req     Request
	granted func()
	// sentNs is the virtual-time submission instant, for the end-to-end
	// acquire latency stage (recorded only when Obs is enabled).
	sentNs int64
}

// NewNetLockService wires a manager into the testbed.
func NewNetLockService(tb *Testbed, opts NetLockOptions) *NetLockService {
	if opts.Manager == nil {
		panic("cluster: NetLockOptions.Manager required")
	}
	s := &NetLockService{
		tb:      tb,
		opts:    opts,
		mgr:     opts.Manager,
		pending: make(map[pendKey]*pendingAcq),
	}
	for i := 0; i < opts.Manager.NumServers(); i++ {
		var cores []*eventsim.Station
		for c := 0; c < tb.Cfg.ServerCores; c++ {
			cores = append(cores, eventsim.NewStation(tb.Eng, tb.Cfg.ServerCoreNs))
		}
		s.cores = append(s.cores, cores)
	}
	if opts.SweepEveryNs > 0 {
		s.scheduleSweep()
	}
	if opts.AllocEveryNs > 0 {
		s.scheduleAlloc()
	}
	return s
}

// Name implements LockService.
func (s *NetLockService) Name() string { return "NetLock" }

// Manager returns the underlying NetLock instance.
func (s *NetLockService) Manager() *core.Manager { return s.mgr }

// PendingAcquires returns the number of acquires whose grant has not yet
// reached the client — a liveness diagnostic.
func (s *NetLockService) PendingAcquires() int { return len(s.pending) }

// Acquire implements LockService.
func (s *NetLockService) Acquire(req Request, granted func()) {
	key := pendKey{req.LockID, req.TxnID}
	p := &pendingAcq{req: req, granted: granted}
	if s.opts.Obs.Enabled() {
		p.sentNs = s.tb.Eng.Now()
	}
	s.pending[key] = p
	s.sendAcquire(req)
	if s.tb.Cfg.RetryTimeoutNs > 0 {
		s.armRetry(key)
	}
}

func (s *NetLockService) sendAcquire(req Request) {
	h := req.Header(wire.OpAcquire)
	s.clientSend(req.Client, func() { s.switchArrive(h) })
}

// armRetry resends an acquire that has not resolved within the timeout
// (packet loss or switch failure; §6.5).
func (s *NetLockService) armRetry(key pendKey) {
	s.tb.Eng.After(s.tb.Cfg.RetryTimeoutNs, func() {
		p, ok := s.pending[key]
		if !ok {
			return
		}
		s.sendAcquire(p.req)
		s.armRetry(key)
	})
}

// Release implements LockService.
func (s *NetLockService) Release(req Request) {
	h := req.Header(wire.OpRelease)
	s.clientSend(req.Client, func() { s.switchArrive(h) })
}

// clientSend charges the client NIC and software overhead plus one hop to
// the ToR.
func (s *NetLockService) clientSend(client int, deliver func()) {
	s.tb.ClientNIC(client).Submit(func() {
		s.tb.Eng.After(s.tb.Cfg.ClientOverheadNs+s.tb.Cfg.HopNs, deliver)
	})
}

// switchArrive processes a packet at the lock switch.
func (s *NetLockService) switchArrive(h wire.Header) {
	if s.tb.SwitchDown() {
		return // the ToR is the only path; traffic is lost
	}
	s.tb.SwitchStation().Submit(func() {
		emits, passes := s.mgr.Switch().ProcessPacket(&h)
		// Charge the extra resubmit passes as switch occupancy.
		for i := 1; i < passes; i++ {
			s.tb.SwitchStation().Submit(func() {})
		}
		for _, e := range emits {
			s.routeSwitchEmit(e)
		}
	})
}

func (s *NetLockService) routeSwitchEmit(e switchdp.Emit) {
	h := e.Hdr
	switch e.Action {
	case switchdp.ActGrant:
		s.toClient(h, func() { s.resolve(h) })
	case switchdp.ActFetch:
		s.toDatabase(h)
	case switchdp.ActForward, switchdp.ActForwardOverflow, switchdp.ActPushNotify:
		s.toServer(h)
	case switchdp.ActReject:
		// Quota exceeded: the client backs off and retries.
		s.toClient(h, func() {
			key := pendKey{h.LockID, h.TxnID}
			p, ok := s.pending[key]
			if !ok {
				return
			}
			backoff := int64(20_000) + s.tb.Rng.Int63n(20_000)
			s.tb.Eng.After(backoff, func() {
				if _, still := s.pending[key]; still {
					s.sendAcquire(p.req)
				}
			})
		})
	}
}

// toClient delivers a packet switch->client: one hop plus client overhead.
func (s *NetLockService) toClient(h wire.Header, then func()) {
	s.tb.Eng.After(s.tb.Cfg.HopNs+s.tb.Cfg.ClientOverheadNs, then)
}

// toDatabase models the one-RTT mode: the grant is forwarded to the
// database server, which fetches the item and replies to the client with
// the data — completing lock acquisition and data fetch in one RTT.
func (s *NetLockService) toDatabase(h wire.Header) {
	s.tb.Eng.After(s.tb.Cfg.HopNs, func() {
		s.tb.DBStation().Submit(func() {
			// Database -> switch -> client with the item.
			s.tb.Eng.After(2*s.tb.Cfg.HopNs+s.tb.Cfg.ClientOverheadNs, func() { s.resolve(h) })
		})
	})
}

// toServer delivers a packet switch->lock server and processes it on the
// RSS-selected core.
func (s *NetLockService) toServer(h wire.Header) {
	srvIdx := s.mgr.ServerFor(h.LockID)
	core := lockserver.RSSCore(h.LockID, s.tb.Cfg.ServerCores)
	s.tb.Eng.After(s.tb.Cfg.HopNs+s.tb.Cfg.ServerBatchNs, func() {
		s.cores[srvIdx][core].Submit(func() {
			emits := s.mgr.Server(srvIdx).ProcessPacket(&h)
			for _, e := range emits {
				s.routeServerEmit(e)
			}
		})
	})
}

func (s *NetLockService) routeServerEmit(e lockserver.Emit) {
	h := e.Hdr
	switch e.Action {
	case lockserver.ActGrant:
		// Server -> switch (plain forwarding) -> client.
		s.tb.Eng.After(s.tb.Cfg.HopNs, func() { s.toClient(h, func() { s.resolve(h) }) })
	case lockserver.ActFetch:
		s.tb.Eng.After(s.tb.Cfg.HopNs, s.dbFrom(h))
	case lockserver.ActPush:
		s.tb.Eng.After(s.tb.Cfg.HopNs, func() { s.switchArrive(h) })
	case lockserver.ActReject:
		// Bounded server buffer full: back off and retry, like a quota
		// reject from the switch.
		s.tb.Eng.After(s.tb.Cfg.HopNs, func() {
			s.toClient(h, func() {
				key := pendKey{h.LockID, h.TxnID}
				p, ok := s.pending[key]
				if !ok {
					return
				}
				backoff := int64(20_000) + s.tb.Rng.Int63n(20_000)
				s.tb.Eng.After(backoff, func() {
					if _, still := s.pending[key]; still {
						s.sendAcquire(p.req)
					}
				})
			})
		})
	}
}

func (s *NetLockService) dbFrom(h wire.Header) func() {
	return func() { s.toDatabase(h) }
}

// resolve completes a pending acquire; duplicate grants (retries, races)
// are ignored.
func (s *NetLockService) resolve(h wire.Header) {
	key := pendKey{h.LockID, h.TxnID}
	p, ok := s.pending[key]
	if !ok {
		return
	}
	delete(s.pending, key)
	if o := s.opts.Obs; o.Enabled() && p.sentNs != 0 {
		o.Observe(obs.StageAcquireE2E, s.tb.Eng.Now()-p.sentNs)
	}
	p.granted()
}

// scheduleSweep runs the lease sweep loop: synthesized releases are
// injected into the switch locally (control plane), and server-side sweep
// grants are routed normally.
func (s *NetLockService) scheduleSweep() {
	s.tb.Eng.After(s.opts.SweepEveryNs, func() {
		if !s.mgr.SwitchFailed() {
			rels, emits := s.mgr.SweepLeases(s.tb.Eng.Now())
			for _, h := range rels {
				s.switchArrive(h)
			}
			for _, e := range emits {
				s.routeServerEmit(e)
			}
			for _, h := range s.mgr.SweepStranded() {
				s.toServer(h)
			}
		}
		s.scheduleSweep()
	})
}

// scheduleAlloc runs the memory-management loop (§4.3): measure a window,
// reallocate, and deliver the grants its demotions produced.
func (s *NetLockService) scheduleAlloc() {
	s.tb.Eng.After(s.opts.AllocEveryNs, func() {
		if !s.mgr.SwitchFailed() {
			demands := s.mgr.MeasureDemands(float64(s.opts.AllocEveryNs) / 1e9)
			_, emits := s.mgr.Reallocate(demands, s.opts.Allocator)
			for _, e := range emits {
				s.routeServerEmit(e)
			}
		}
		s.scheduleAlloc()
	})
}
