package switchdp

import (
	"fmt"

	"netlock/internal/sharedqueue"
	"netlock/internal/wire"
)

// Live-migration control operations: export a resident lock's full queue
// state (for a demotion to a lock server) and import one (for a promotion
// from a lock server), both without replaying requests through the grant
// logic. Replay is not an option: grant decisions depend on arrival order
// relative to state that no longer exists (e.g. a high-priority exclusive
// that arrived after a lower-priority shared was granted would be granted
// on replay — a double grant). The queue state is therefore moved
// literally, granted bits included, and the counters are reconstructed
// from it (see sharedqueue.CtrlLoadQueue).

// CtrlExportLock snapshots a resident lock's queue state and evicts the
// lock from the switch in one control-plane step. Unlike CtrlRemoveLock it
// does not require the queues to be drained — the occupied slots ARE the
// export, each bank head-first, with leases absolute against the switch
// clock the state is stamped with. After it returns, requests for the
// lock take the not-resident path (forwarded to the lock server), so the
// caller must deliver the export to the server before or while those
// forwards arrive; the server's queue-merge dedups the overlap.
func (sw *Switch) CtrlExportLock(lockID uint32) (wire.LockState, error) {
	qiRaw, ok := sw.lockTable.Lookup(lockID)
	if !ok {
		return wire.LockState{}, fmt.Errorf("switchdp: lock %d not installed", lockID)
	}
	qi := int(qiRaw)
	st := wire.LockState{LockID: lockID, BaseNs: sw.cfg.Now(), Banks: make([][]wire.LockEntry, len(sw.banks))}
	for b := range sw.banks {
		for _, s := range sw.banks[b].CtrlQueueSlots(qi) {
			st.Banks[b] = append(st.Banks[b], entryFromSlot(lockID, b, s))
		}
	}
	// Evict: clear every per-lock register so the table entry is clean for
	// the next install, then free the index.
	if err := sw.lockTable.CtrlDel(lockID); err != nil {
		return wire.LockState{}, err
	}
	for b := range sw.banks {
		sw.banks[b].CtrlSetRegion(qi, 0, 0)
		sw.ovf[b].CtrlWrite(qi, 0)
	}
	sw.hold.CtrlWrite(qi, 0)
	sw.cmax.CtrlWrite(qi, 0)
	sw.reqCounter.CtrlClear(qi)
	sw.lockIDs[qi] = 0
	sw.freeIdx = append(sw.freeIdx, qi)
	return st, nil
}

// CtrlNow returns the switch's data-plane clock, the rebase target for
// state imported here.
func (sw *Switch) CtrlNow() int64 { return sw.cfg.Now() }

// CtrlHasTxn reports whether a resident lock's queues already hold an
// entry for txnID, in any bank, granted or waiting. The chain uses it to
// drop duplicate re-entries: a client retransmit re-forwarded to the lock
// server across a server-to-switch move bounces back here with the
// server's dedup state already exported — without this check the bounce
// would claim a second slot for the same request (a ghost holder whose
// grant is undeliverable and whose release never comes). Pure read of
// replicated state, so every chain member decides identically.
func (sw *Switch) CtrlHasTxn(lockID uint32, txnID uint64) bool {
	if txnID == wire.TxnNone {
		return false
	}
	qiRaw, ok := sw.lockTable.Lookup(lockID)
	if !ok {
		return false
	}
	qi := int(qiRaw)
	for b := range sw.banks {
		for _, s := range sw.banks[b].CtrlQueueSlots(qi) {
			if s.TxnID == txnID {
				return true
			}
		}
	}
	return false
}

// slotFromEntry converts a migrated request into the switch's queue-slot
// representation for import into a bank. Note the slot carries no client
// port: grants for migrated entries route through the transport's pending
// table, which is keyed by (lock, txn) and survives the move.
func slotFromEntry(e *wire.LockEntry, bank int) sharedqueue.Slot {
	return sharedqueue.Slot{
		Exclusive: e.Hdr.Mode == wire.Exclusive,
		OneRTT:    e.Hdr.Flags&wire.FlagOneRTT != 0,
		Granted:   e.Granted,
		Tenant:    e.Hdr.TenantID,
		Priority:  uint8(bank),
		ClientIP:  u32FromIP(&e.Hdr),
		TxnID:     e.Hdr.TxnID,
		LeaseNs:   e.LeaseNs,
	}
}

// entryFromSlot converts a switch queue slot back into the acquire-shaped
// request it was enqueued from.
func entryFromSlot(lockID uint32, bank int, s sharedqueue.Slot) wire.LockEntry {
	h := wire.Header{
		Op:       wire.OpAcquire,
		Mode:     wire.Shared,
		LockID:   lockID,
		TxnID:    s.TxnID,
		ClientIP: ipFromU32(s.ClientIP),
		TenantID: s.Tenant,
		Priority: uint8(bank),
	}
	if s.Exclusive {
		h.Mode = wire.Exclusive
	}
	if s.OneRTT {
		h.Flags = wire.FlagOneRTT
	}
	return wire.LockEntry{Hdr: h, LeaseNs: s.LeaseNs, Granted: s.Granted}
}

// CtrlImportLock makes a lock switch-resident with pre-existing queue
// state: regions are assigned per bank and entries installed literally
// (granted bits, modes, leases), with occupancy/exclusive/waiting/hold
// counters reconstructed. st.Banks[b] must fit regions[b]; leases must
// already be rebased onto this switch's clock (see CtrlNow).
func (sw *Switch) CtrlImportLock(regions []Region, st wire.LockState) error {
	if len(st.Banks) > len(sw.banks) {
		return fmt.Errorf("switchdp: got %d banks for %d priority banks", len(st.Banks), len(sw.banks))
	}
	for b, r := range regions {
		if b < len(st.Banks) && uint64(len(st.Banks[b])) > r.Size() {
			return fmt.Errorf("switchdp: bank %d: %d entries exceed region [%d,%d)",
				b, len(st.Banks[b]), r.Left, r.Right)
		}
	}
	if err := sw.CtrlInstallLock(st.LockID, regions); err != nil {
		return err
	}
	qiRaw, _ := sw.lockTable.Lookup(st.LockID)
	qi := int(qiRaw)
	var held uint64
	var heldExcl bool
	for b := range sw.banks {
		var slots []sharedqueue.Slot
		if b < len(st.Banks) {
			slots = make([]sharedqueue.Slot, len(st.Banks[b]))
		}
		for i := range slots {
			slots[i] = slotFromEntry(&st.Banks[b][i], b)
			if slots[i].Granted {
				held++
				heldExcl = heldExcl || slots[i].Exclusive
			}
		}
		sw.banks[b].CtrlLoadQueue(qi, regions[b].Left, regions[b].Right, slots)
	}
	hold := held
	if heldExcl {
		hold |= holdExclBit
	}
	sw.hold.CtrlWrite(qi, hold)
	return nil
}
