package wire

// LockState is one lock's queue state in transit. Every live move —
// switch to server, server to switch, server to server, rack to rack —
// exports one from the source, rebases it onto the destination's clock
// and imports it there. Banks holds each priority bank's requests in FIFO
// order, granted prefix first; BaseNs is the clock reading the leases are
// absolute against.
type LockState struct {
	LockID uint32
	BaseNs int64
	Banks  [][]LockEntry
}

// LockEntry is one queued request in transit: the acquire header as the
// client sent it, the absolute lease expiry (0 for none) and whether the
// request holds the lock. A MigEntry record carries exactly one.
type LockEntry struct {
	Hdr     Header
	LeaseNs int64
	Granted bool
}

// Rebase returns a copy of s whose leases are absolute against a clock
// that reads nowNs at the moment s's source clock read s.BaseNs: each
// nonzero lease shifts by nowNs - s.BaseNs and a zero lease stays zero.
// s itself is left unchanged, so a failed import can re-install it at its
// source.
func (s LockState) Rebase(nowNs int64) LockState {
	out := LockState{LockID: s.LockID, BaseNs: nowNs, Banks: make([][]LockEntry, len(s.Banks))}
	for b, bank := range s.Banks {
		out.Banks[b] = append([]LockEntry(nil), bank...)
		for i := range out.Banks[b] {
			if e := &out.Banks[b][i]; e.LeaseNs != 0 {
				e.LeaseNs += nowNs - s.BaseNs
			}
		}
	}
	return out
}
