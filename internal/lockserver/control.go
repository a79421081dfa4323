package lockserver

import (
	"fmt"
	"sort"

	"netlock/internal/obs"
	"netlock/internal/wire"
)

// Control-plane operations: workload measurement for the memory allocator,
// ownership transfer when locks move between switch and servers, and the
// lease sweep.

// LockLoad is one lock's measured workload over the last window.
type LockLoad struct {
	LockID uint32
	// Owned reports whether this server processed the lock (vs. only
	// buffering overflow).
	Owned bool
	// Requests counts acquires processed in the window (owned locks).
	Requests uint64
	// MaxConcurrent is the peak concurrent requests observed (c_i).
	MaxConcurrent uint64
	// BufferedPeak is the peak q2 depth (switch-resident locks): extra
	// contention the switch's own gauge could not see.
	BufferedPeak uint64
}

// CtrlMeasure reads and resets the per-lock workload counters, closing a
// measurement window.
func (s *Server) CtrlMeasure() []LockLoad {
	out := make([]LockLoad, 0, len(s.locks))
	for id, lo := range s.locks {
		out = append(out, LockLoad{
			LockID:        id,
			Owned:         lo.owned,
			Requests:      lo.reqs,
			MaxConcurrent: lo.peak,
			BufferedPeak:  lo.q2peak,
		})
		lo.reqs = 0
		lo.peak = lo.current
		lo.q2peak = 0
	}
	return out
}

// CtrlOwnedLocks returns the IDs of locks this server currently
// processes, ascending, so a drain or failover that walks them emits in
// the same order every run.
func (s *Server) CtrlOwnedLocks() []uint32 {
	var out []uint32
	for id, lo := range s.locks {
		if lo.owned {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CtrlQueueDepth returns the number of queued (waiting + granted) requests
// for an owned lock, and the buffered q2 depth for a resident lock.
func (s *Server) CtrlQueueDepth(lockID uint32) (owned int, buffered int) {
	lo, ok := s.locks[lockID]
	if !ok {
		return 0, 0
	}
	for b := range lo.queues {
		owned += len(lo.queues[b])
		buffered += len(lo.q2[b])
	}
	return owned, buffered
}

// CtrlReleaseOwnership marks a lock as switch-resident. The lock's queues
// must be empty.
func (s *Server) CtrlReleaseOwnership(lockID uint32) error {
	lo := s.lock(lockID)
	for b := range lo.queues {
		if len(lo.queues[b]) != 0 {
			return fmt.Errorf("lockserver: lock %d not drained (%d queued at priority %d)",
				lockID, len(lo.queues[b]), b)
		}
	}
	lo.owned = false
	lo.current = 0
	return nil
}

// CtrlAdoptLock marks a lock as server-owned again (moved off the switch,
// or reassigned after a switch failure). Any q2-buffered requests become
// normal queued requests, processed in order; the emitted grants must be
// delivered by the caller.
func (s *Server) CtrlAdoptLock(lockID uint32) []Emit {
	s.emits = s.emits[:0]
	lo := s.lock(lockID)
	if lo.owned {
		return nil
	}
	lo.owned = true
	for b := range lo.q2 {
		pending := lo.q2[b]
		lo.q2[b] = nil
		lo.buffering[b] = false
		for i := range pending {
			h := pending[i].hdr
			s.acquire(&h)
		}
	}
	out := make([]Emit, len(s.emits))
	copy(out, s.emits)
	return out
}

// CtrlForget drops all state for a lock (used when reassigning locks to a
// different server after a failure; clients re-resolve and resubmit).
func (s *Server) CtrlForget(lockID uint32) {
	delete(s.locks, lockID)
}

// CtrlScanExpired sweeps owned locks for granted requests whose lease
// expired before now, releasing them as the failure-handling path (§4.5).
// It returns the emitted grants produced by the forced releases.
func (s *Server) CtrlScanExpired(now int64) []Emit {
	s.emits = s.emits[:0]
	for id, lo := range s.locks {
		if !lo.owned {
			continue
		}
		// Repeatedly release expired heads; a forced release can grant a
		// next request whose lease is itself already expired.
		for swept := true; swept; {
			swept = false
			if lo.held == 0 {
				break
			}
			for b := range lo.queues {
				if len(lo.queues[b]) == 0 {
					continue
				}
				e := lo.queues[b][0]
				// Only granted heads may be force-released: a waiting
				// head's lease was stamped on enqueue, and releasing it
				// would consume a live holder's hold count.
				if e.granted && e.lease != 0 && e.lease < now {
					s.stats.ExpiredReleases++
					if o := s.cfg.Obs; o != nil {
						o.Inc(obs.CtrLeaseExpiries)
						if o.Tracing() {
							o.Trace(obs.TraceEvent{Event: obs.EvLeaseExpiry,
								LockID: id, TxnID: e.hdr.TxnID, Tenant: e.hdr.TenantID})
						}
					}
					rel := wire.Header{
						Op:       wire.OpRelease,
						Mode:     e.hdr.Mode,
						LockID:   id,
						TxnID:    e.hdr.TxnID,
						Priority: uint8(b),
					}
					s.emit(ActExpired, rel)
					s.release(&rel)
					swept = true
					break
				}
			}
		}
	}
	out := make([]Emit, len(s.emits))
	copy(out, s.emits)
	return out
}

// CtrlPending snapshots the header of every request currently queued at
// this server: owned-queue entries (waiting and granted) and
// overflow-buffered q2 entries, across all locks. Verification harnesses
// use it to account precisely for the requests destroyed when a server
// fails — everything in this snapshot dies with the server.
func (s *Server) CtrlPending() []wire.Header {
	var out []wire.Header
	for _, lo := range s.locks {
		for b := range lo.queues {
			for _, e := range lo.queues[b] {
				out = append(out, e.hdr)
			}
			for _, e := range lo.q2[b] {
				out = append(out, e.hdr)
			}
		}
	}
	return out
}
