package transport

import (
	"fmt"
	"time"

	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// Live region moves over the chain. A move transfers a lock's occupied
// queue state between the switch chain and a lock server without draining.
// The state crossing the switch boundary must change residency at the SAME
// position in every member's op stream — direct per-member control calls
// would land at different positions, after which one member enqueues an
// acquire the other forwards, and the replicas diverge. So moves ride the
// stream itself as wire.OpMigrate records:
//
//	demote:  [MigDemote]                       — each member exports+evicts
//	                                             deterministically; the head
//	                                             hands its export to the
//	                                             caller, who installs it at
//	                                             the server.
//	promote: [MigBegin, MigRegion×banks,       — each member stages records
//	          MigEntry×n, MigCommit]             and imports at the commit.
//
// The promote stream is sequenced under one lock hold, so no other op
// interleaves with it at the head; members apply in sequence order, so no
// op interleaves anywhere else either. In-flight requests that reach the
// wrong side mid-move bounce (server ActPush ↔ switch forward) until the
// new owner is live — the controller primes the destination server first so
// the bounce path, not first-contact adoption, handles the race.

// migStaging accumulates one promote's records between begin and commit.
type migStaging struct {
	regions []switchdp.Region
	state   wire.LockState
	count   int
}

// applyMigrate applies one sequenced migrate record to this member. Part of
// the replicated apply path: every member executes it identically. Caller
// holds s.mu.
func (s *Switch) applyMigrate(h *wire.Header) {
	rec, err := wire.ParseMigrate(h)
	if err != nil {
		// A malformed record was sequenced — a head-side bug, not peer skew.
		// Applying nothing keeps members identical (they all parse the same
		// bytes); surface the error to the head-side caller.
		s.migErr = err
		return
	}
	switch rec.Kind {
	case wire.MigDemote:
		st, err := s.dp.CtrlExportLock(rec.LockID)
		s.migErr = err
		if err == nil {
			s.migDemoted = &st
		}
	case wire.MigBegin:
		banks := s.dp.Banks()
		s.migStage[rec.LockID] = &migStaging{
			regions: make([]switchdp.Region, banks),
			state:   wire.LockState{LockID: rec.LockID, BaseNs: rec.BaseNs, Banks: make([][]wire.LockEntry, banks)},
		}
	case wire.MigRegion:
		st := s.migStage[rec.LockID]
		if st == nil || int(rec.Bank) >= len(st.regions) {
			s.migErr = fmt.Errorf("transport: stray migrate region for lock %d", rec.LockID)
			return
		}
		st.regions[rec.Bank] = switchdp.Region{Left: uint64(rec.Left), Right: uint64(rec.Right)}
	case wire.MigEntry:
		st := s.migStage[rec.Entry.LockID]
		if st == nil {
			s.migErr = fmt.Errorf("transport: stray migrate entry for lock %d", rec.Entry.LockID)
			return
		}
		b := min(int(rec.Entry.Priority), len(st.state.Banks)-1)
		st.state.Banks[b] = append(st.state.Banks[b], wire.LockEntry{Hdr: rec.Entry, LeaseNs: rec.Entry.LeaseNs, Granted: rec.Granted})
		st.count++
	case wire.MigCommit:
		st := s.migStage[rec.LockID]
		delete(s.migStage, rec.LockID)
		if st == nil {
			s.migErr = fmt.Errorf("transport: migrate commit without begin for lock %d", rec.LockID)
			return
		}
		if st.count != int(rec.Count) {
			s.migErr = fmt.Errorf("transport: migrate commit count %d, staged %d", rec.Count, st.count)
			return
		}
		if err := s.dp.CtrlImportLock(st.regions, st.state); err != nil {
			// The head validated capacity before sequencing, so a failure
			// here means replicas disagree about data-plane state — the one
			// condition the chain cannot survive silently.
			panic(fmt.Sprintf("transport: migrate import of lock %d diverged: %v", rec.LockID, err))
		}
		s.migErr = nil
	}
}

// chainCommitWait bounds how long a migration entry point blocks for the
// tail's ack before returning anyway. Chain frames between in-process
// members land in microseconds and the 50ms heal re-sends anything
// dropped, so the bound is only reached when the fabric is already broken.
const chainCommitWait = 2 * time.Second

// waitChainCommitted blocks until the tail's applied-prefix ack covers seq
// — the head's log has pruned past it, so every chain member has applied
// the op and it survives any single-member failure. Ordinary client ops
// never need this: their effects become externally visible only at the
// tail. Migration records are different — the head-side entry points
// return state (a demote's export) or success (a promote) from the HEAD's
// local apply, and the controller acts on that immediately (installs the
// export at a server, records the placement). Replication down the chain
// is asynchronous, so without this fence a head killed right after a move
// takes the only applied copy of the migrate records with it: a lost
// promote leaves the lock owned by nobody (the server already exported,
// the survivors never imported — every acquire ping-pongs forever), a lost
// demote leaves it owned twice (survivors still resident while the server
// imports — double grants). The controller serializes moves and failure
// drills on one mutex, so once this returns the kill can no longer lose
// the move. Returns false on timeout or switch close; the move has still
// happened at the head, so callers proceed — the heal machinery converges
// unless the head itself dies inside the (already unhealthy) window.
func (s *Switch) waitChainCommitted(seq uint64) bool {
	deadline := time.Now().Add(chainCommitWait)
	for {
		s.mu.Lock()
		done := len(s.chain.log) == 0 || s.chain.log[0].Seq > seq
		s.mu.Unlock()
		if done {
			return true
		}
		select {
		case <-s.closed:
			return false
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// MigrateDemoteLock live-demotes a resident lock off the chain: a MigDemote
// record is sequenced, every member exports and evicts the lock at the same
// stream position, and the head's export — stamped with the head's clock —
// is returned. Blocks until the record is tail-acked (see
// waitChainCommitted). Head only.
func (s *Switch) MigrateDemoteLock(lockID uint32) (wire.LockState, error) {
	s.mu.Lock()
	if !s.chain.head {
		s.mu.Unlock()
		return wire.LockState{}, fmt.Errorf("transport: demote on a non-head member")
	}
	if !s.dp.CtrlHasLock(lockID) {
		s.mu.Unlock()
		return wire.LockState{}, fmt.Errorf("transport: lock %d not switch-resident", lockID)
	}
	h := wire.MigrateDemote(lockID)
	s.migDemoted, s.migErr = nil, nil
	s.sequence(wire.OriginCtrl, &h)
	s.flushChain()
	if s.migErr != nil || s.migDemoted == nil {
		err := fmt.Errorf("transport: demote lock %d: %v", lockID, s.migErr)
		s.mu.Unlock()
		return wire.LockState{}, err
	}
	st := *s.migDemoted
	s.migDemoted = nil
	commitSeq := s.chain.seq
	s.mu.Unlock()
	s.waitChainCommitted(commitSeq)
	return st, nil
}

// MigratePromoteLock live-promotes a server-exported lock into the chain:
// the full state — regions per bank, then every queue entry with its
// granted bit — is sequenced as one uninterrupted run of migrate records,
// and every member installs it at the MigCommit. Leases must already be
// rebased onto this head's clock (see NowNs). Blocks until the records are
// tail-acked (see waitChainCommitted); errors are only returned from
// validation before anything is sequenced, so a non-nil error always means
// no member changed state and the caller may roll back. Head only.
func (s *Switch) MigratePromoteLock(regions []switchdp.Region, st wire.LockState) error {
	s.mu.Lock()
	commitSeq, err := s.migratePromoteLocked(regions, st)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.waitChainCommitted(commitSeq)
	return nil
}

func (s *Switch) migratePromoteLocked(regions []switchdp.Region, st wire.LockState) (uint64, error) {
	lockID, banks := st.LockID, st.Banks
	if !s.chain.head {
		return 0, fmt.Errorf("transport: promote on a non-head member")
	}
	if s.dp.CtrlHasLock(lockID) {
		return 0, fmt.Errorf("transport: lock %d already switch-resident", lockID)
	}
	if s.dp.CtrlFreeEntries() == 0 {
		return 0, fmt.Errorf("transport: lock table full")
	}
	if len(regions) != s.dp.Banks() {
		return 0, fmt.Errorf("transport: %d regions for %d banks", len(regions), s.dp.Banks())
	}
	count := 0
	for b := range banks {
		if b >= len(regions) {
			if len(banks[b]) > 0 {
				return 0, fmt.Errorf("transport: entries in bank %d beyond %d regions", b, len(regions))
			}
			continue
		}
		if uint64(len(banks[b])) > regions[b].Right-regions[b].Left {
			return 0, fmt.Errorf("transport: %d entries exceed region [%d,%d) in bank %d",
				len(banks[b]), regions[b].Left, regions[b].Right, b)
		}
		count += len(banks[b])
	}
	s.migErr = nil
	seq := func(h wire.Header) {
		s.sequence(wire.OriginCtrl, &h)
	}
	seq(wire.MigrateBegin(lockID, st.BaseNs))
	for b, r := range regions {
		// Region bounds are slot indices into the switch queue memory,
		// always far below 2^32; the wire format carries them as uint32.
		seq(wire.MigrateRegionRec(lockID, uint8(b), uint32(r.Left), uint32(r.Right)))
	}
	for b := range banks {
		for i := range banks[b] {
			e := &banks[b][i]
			hdr := e.Hdr
			hdr.Priority = uint8(b)
			hdr.LeaseNs = e.LeaseNs
			seq(wire.MigrateEntry(&hdr, e.Granted))
		}
	}
	seq(wire.MigrateCommit(lockID, uint32(count)))
	s.flushChain()
	return s.chain.seq, s.migErr
}

// NowNs returns the switch's data-plane clock; migrating lease expiries are
// rebased between node clocks with it.
func (s *Switch) NowNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now()
}

// --- Lock-server node control surface for live moves ---

// ImportLock installs migrated queue state at this server and forwards the
// resulting overflow-replay grants through the switch like any other
// server output. Leases must already be rebased onto this server's clock
// (lockserver.CtrlNow).
func (s *Server) ImportLock(st wire.LockState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	emits, err := s.ls.CtrlImportLock(st)
	if err != nil {
		return err
	}
	sw := s.switchAddr
	if sw.IsValid() {
		for i := range emits {
			s.eg.send(&emits[i].Hdr, sw)
		}
		s.eg.flushAll()
	}
	return nil
}
