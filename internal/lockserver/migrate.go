package lockserver

import (
	"fmt"
	"sort"

	"netlock/internal/wire"
)

// Live-migration control operations. A region move transfers a lock's full
// queue state — granted bits included — between this server and the switch
// without draining: the occupied queue is the payload. State is installed
// literally rather than replayed through the grant logic, because grant
// decisions depend on arrival order relative to state that no longer
// exists (replaying a waiter behind a since-released holder would grant it
// out of turn).

// CtrlExportLock atomically snapshots an owned lock's queues and releases
// ownership. A never-contacted lock is owned by default (first contact
// adopts it), so it exports empty queues and is recorded as not owned. Any
// q2-buffered requests are appended to their bank as waiters, so nothing
// is lost. After the call, requests for the lock are forwarded back to the
// switch; the caller must install the export at the destination promptly
// (in-flight requests ping-pong between switch and server until the new
// owner is live). Leases are absolute against the server clock the state
// is stamped with.
func (s *Server) CtrlExportLock(lockID uint32) (wire.LockState, error) {
	st := wire.LockState{LockID: lockID, BaseNs: s.cfg.Now(), Banks: make([][]wire.LockEntry, s.cfg.Priorities)}
	lo := s.lock(lockID)
	if !lo.owned {
		return wire.LockState{}, fmt.Errorf("lockserver: lock %d not owned by this server", lockID)
	}
	for b := range lo.queues {
		bank := make([]wire.LockEntry, 0, len(lo.queues[b])+len(lo.q2[b]))
		for _, e := range lo.queues[b] {
			bank = append(bank, wire.LockEntry{Hdr: e.hdr, LeaseNs: e.lease, Granted: e.granted})
		}
		for _, e := range lo.q2[b] {
			bank = append(bank, wire.LockEntry{Hdr: e.hdr})
		}
		st.Banks[b] = bank
		lo.queues[b] = nil
		lo.q2[b] = nil
		lo.buffering[b] = false
		lo.excl[b] = 0
		lo.wait[b] = 0
	}
	lo.owned = false
	lo.held = 0
	lo.heldX = false
	lo.current = 0
	return st, nil
}

// CtrlImportLock makes a lock server-owned with pre-existing queue state:
// entries are installed literally per bank (granted flags preserved,
// counters reconstructed), then any q2-buffered requests that accumulated
// while the lock was switch-resident are replayed as normal acquires in
// arrival order (deduplicated against the imported entries). Leases must
// already be rebased onto this server's clock (see CtrlNow). The returned
// emits (grants produced by the q2 replay) must be delivered by the caller.
func (s *Server) CtrlImportLock(st wire.LockState) ([]Emit, error) {
	if len(st.Banks) > s.cfg.Priorities {
		return nil, fmt.Errorf("lockserver: import of %d banks into %d priorities", len(st.Banks), s.cfg.Priorities)
	}
	s.emits = s.emits[:0]
	lo := s.lock(st.LockID)
	if lo.owned {
		for b := range lo.queues {
			if len(lo.queues[b]) != 0 {
				return nil, fmt.Errorf("lockserver: lock %d already owned with queued state", st.LockID)
			}
		}
	}
	lo.owned = true
	lo.held = 0
	lo.heldX = false
	lo.current = 0
	for b := range lo.queues {
		lo.queues[b] = nil
		lo.excl[b] = 0
		lo.wait[b] = 0
	}
	for b, bank := range st.Banks {
		for _, e := range bank {
			ent := entry{hdr: e.Hdr, lease: e.LeaseNs, granted: e.Granted}
			lo.queues[b] = append(lo.queues[b], ent)
			if e.Hdr.Mode == wire.Exclusive {
				lo.excl[b]++
			}
			if e.Granted {
				lo.held++
				if e.Hdr.Mode == wire.Exclusive {
					lo.heldX = true
				}
			} else {
				lo.wait[b]++
			}
			lo.current++
		}
	}
	if lo.current > lo.peak {
		lo.peak = lo.current
	}
	// Requests that arrived overflow-marked while the lock lived in the
	// switch are later arrivals than every imported entry: replay them in
	// order. dedup() drops any overlap with the imported queues (a request
	// both exported by the switch and still sitting in q2).
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
	return out, nil
}

// CtrlExportOverflow removes and returns the q2-buffered requests of a
// switch-resident (non-owned) lock, per bank in arrival order. A server
// drain moves this residue to the drain target so the switch's next
// push-notify finds the buffered requests at the server it now routes to;
// leaving them behind would strand them when routing flips.
func (s *Server) CtrlExportOverflow(lockID uint32) [][]wire.Header {
	lo, ok := s.locks[lockID]
	if !ok || lo.owned {
		return nil
	}
	out := make([][]wire.Header, s.cfg.Priorities)
	any := false
	for b := range lo.q2 {
		for _, e := range lo.q2[b] {
			out[b] = append(out[b], e.hdr)
			any = true
		}
		lo.q2[b] = nil
		lo.buffering[b] = false
	}
	if !any {
		return nil
	}
	return out
}

// CtrlImportOverflow appends migrated q2 requests for a switch-resident
// lock, deduplicating against anything already buffered here (a request
// can race its own migration via the overflow path).
func (s *Server) CtrlImportOverflow(lockID uint32, banks [][]wire.Header) {
	if banks == nil {
		return
	}
	_, existed := s.locks[lockID]
	lo := s.lock(lockID)
	if !existed {
		// First contact via a migration: the lock is switch-resident, so
		// the fresh lockObj must not default to server-owned.
		lo.owned = false
	}
	for b := range banks {
		if b >= s.cfg.Priorities {
			break
		}
		for i := range banks[b] {
			if found, _ := lo.findTxn(banks[b][i].TxnID); found {
				s.stats.DupAcquires++
				continue
			}
			lo.q2[b] = append(lo.q2[b], entry{hdr: banks[b][i]})
			lo.buffering[b] = true
		}
	}
}

// CtrlPrepareImport stakes out a non-owned lock object ahead of a migration
// toward this server. A request racing the move then bounces back to the
// switch (ActPush) instead of hitting the first-contact-adopts default and
// making this server the owner while the exported state is still in flight
// — a split brain that would double-grant. No-op if the lock is known.
func (s *Server) CtrlPrepareImport(lockID uint32) {
	if _, ok := s.locks[lockID]; !ok {
		lo := s.lock(lockID)
		lo.owned = false
	}
}

// CtrlNow returns the server's data-plane clock, the rebase target for
// state imported here.
func (s *Server) CtrlNow() int64 { return s.cfg.Now() }

// CtrlOwns reports whether the server currently owns the lock.
func (s *Server) CtrlOwns(lockID uint32) bool {
	lo, ok := s.locks[lockID]
	return ok && lo.owned
}

// CtrlOverflowLocks returns the IDs of switch-resident locks for which this
// server holds q2-buffered overflow requests, ascending. A server drain
// moves this residue to the drain target alongside the owned locks.
func (s *Server) CtrlOverflowLocks() []uint32 {
	var out []uint32
	for id, lo := range s.locks {
		if lo.owned {
			continue
		}
		for b := range lo.q2 {
			if len(lo.q2[b]) != 0 {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CtrlSetDraining switches the server in or out of draining mode. A
// draining server is being emptied by the rebalancer: it keeps processing
// the locks it still owns, but a request for a lock it does not own is
// rejected with OpReject+FlagMoved — a "moved" redirect the client retries
// immediately through the switch — instead of adopting the lock or
// ping-ponging it. This keeps a drained server from ever becoming the
// default owner of new state while routing flips over.
func (s *Server) CtrlSetDraining(on bool) { s.draining = on }

// CtrlDraining reports whether the server is in draining mode.
func (s *Server) CtrlDraining() bool { return s.draining }
