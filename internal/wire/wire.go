// Package wire defines the NetLock packet format.
//
// NetLock reserves a UDP destination port; packets to that port carry a
// fixed 32-byte NetLock header directly in the UDP payload (§4.2 of the
// paper). The header identifies the operation (acquire / release / grant /
// queue-coordination), the lock, the lock mode, the requesting transaction,
// and the client address the switch needs to send the grant notification to.
//
// Encoding follows the gopacket idiom: DecodeFromBytes reads from a caller
// buffer into a reusable struct, and AppendTo serializes without hidden
// allocation, so the hot path of the switch and servers never allocates per
// packet.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

//go:generate go run gen_corpus.go

// Port is the UDP destination port reserved for NetLock traffic. The
// switch's match-action parser classifies packets by this port; everything
// else is routed untouched (§3.2).
const Port = 52836

// HeaderLen is the fixed length of the NetLock header in bytes.
// Matching the paper's 20B queue-slot size plus addressing fields,
// the on-wire header is 32 bytes.
const HeaderLen = 32

// Version is the current header version.
const Version = 1

// Op is the NetLock operation carried by a packet.
type Op uint8

// NetLock operations. Client-originated ops are Acquire and Release;
// NetLock-originated ops implement grants and the switch-server overflow
// protocol of §4.3.
const (
	// OpAcquire requests a lock in the mode given by the Mode field.
	OpAcquire Op = iota + 1
	// OpRelease releases a lock previously granted to TxnID.
	OpRelease
	// OpGrant notifies a client that its request was granted.
	OpGrant
	// OpReject notifies a client its request was dropped (queue overflow in
	// both switch and server, or lease violation); the client should retry.
	OpReject
	// OpPushNotify is sent by the switch to a lock server when the switch
	// queue for a lock has drained and buffered requests may be pushed.
	OpPushNotify
	// OpPush is sent by a lock server to the switch to insert a request
	// buffered in the server queue (q2) into the switch queue (q1).
	OpPush
	// OpFetch is the one-RTT mode operation: a grant forwarded directly to
	// the database server holding the item, so lock acquisition and data
	// fetch complete in a single round trip (§4.1).
	OpFetch
	// OpReleaseAck confirms to a client that its OpRelease was processed by
	// the node owning the lock. The paper's release is fire-and-forget; the
	// ack lets the transport client resend un-acked releases on its sweep
	// timer so a dropped release packet cannot leak the lock until lease
	// expiry. Acks are idempotent: a node receiving a release for a lock it
	// no longer tracks re-acks without touching the data plane (releases
	// dequeue a granted queue head, so replaying one is never safe).
	OpReleaseAck
	// OpEpoch is a control-plane announcement from a replicated switch
	// chain to a client: the chain entered a new epoch (TxnID carries the
	// epoch number) and the member at ClientIP:ClientPort is now the head.
	// Clients re-target pending traffic; the announcement is idempotent and
	// safe to drop (clients also discover the head by rotating through
	// their configured member list on retransmit).
	OpEpoch
	// OpMigrate carries one record of a live lock migration between the
	// switch chain and a lock server (promote/demote without stop-the-world).
	// The record kind lives in the upper flag bits; see MigrateRecord for the
	// stream grammar (begin → region* → entry* → commit) and field packing.
	// Migrate records ride the chain's sequenced op stream and batch frames
	// unchanged, so replays dedup by chain sequence like every other op.
	OpMigrate
	// OpWrongRack bounces a client request addressed to a rack that does
	// not own the lock's shard under the responder's shard map: LockID and
	// TxnID echo the request, LeaseNs carries the responder's map epoch.
	// The responder also sends its full serialized ShardMap frame, so the
	// client adopts the newer assignment and re-routes everything
	// outstanding; the bounce header alone is a hint that routing is stale.
	OpWrongRack
)

var opNames = map[Op]string{
	OpAcquire:    "acquire",
	OpRelease:    "release",
	OpGrant:      "grant",
	OpReject:     "reject",
	OpPushNotify: "push-notify",
	OpPush:       "push",
	OpFetch:      "fetch",
	OpReleaseAck: "release-ack",
	OpEpoch:      "epoch",
	OpMigrate:    "migrate",
	OpWrongRack:  "wrong-rack",
}

// String returns the lowercase operation name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether the op is a defined NetLock operation. The ops are
// numbered contiguously, so this is a range check, not a table lookup.
func (o Op) Valid() bool { return o >= OpAcquire && o <= OpWrongRack }

// Mode is the lock mode requested.
type Mode uint8

// Lock modes. Shared locks may be held concurrently by many transactions;
// exclusive locks by exactly one.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X", the conventional shorthand.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Flags qualify a packet's handling.
type Flags uint8

const (
	// FlagOverflow marks a request the switch forwarded to a lock server
	// only for buffering: the lock lives in the switch, but its switch queue
	// was full. The server must buffer in q2 without processing (§4.3).
	FlagOverflow Flags = 1 << iota
	// FlagOneRTT asks NetLock to forward the grant to the database server
	// (OpFetch) instead of replying to the client, enabling one-RTT
	// transactions (§4.1).
	FlagOneRTT
	// FlagResubmit marks a packet traversing the switch pipeline again via
	// the resubmit primitive; never seen on the wire outside the switch.
	FlagResubmit
	// FlagBounced marks a request that a lock server bounced back to the
	// switch as an OpPush after the server had already drained its overflow
	// buffer (q2). If the switch queue is full and the request comes back
	// to the server overflow-marked AND bounced, the server buffers it
	// unconditionally, guaranteeing liveness across the clear-overflow
	// race (§4.3 leaves this race unspecified; see internal/lockserver).
	FlagBounced
)

// FlagMoved qualifies an OpReject: the addressed node no longer owns the
// lock (server draining, or the lock moved mid-flight), so the request was
// not dropped for capacity — the client should re-resolve the owner and
// retry immediately rather than backing off. Meaningful only on OpReject;
// the same upper flag bits carry the record kind on OpMigrate headers.
const FlagMoved Flags = 1 << 4

// TxnNone is the reserved transaction ID 0: an OpPush carrying TxnNone is a
// pure control message ("overflow buffer drained, clear overflow mode")
// with no request payload. Clients must allocate transaction IDs from 1.
const TxnNone uint64 = 0

// Header is the NetLock packet header. One Header value can be reused across
// packets via DecodeFromBytes.
type Header struct {
	Op       Op
	Mode     Mode
	Flags    Flags
	LockID   uint32
	TxnID    uint64
	ClientIP netip.Addr // IPv4 address for grant notification
	TenantID uint8
	Priority uint8
	// ClientPort is the UDP source port of the requesting client, stamped
	// by the client alongside ClientIP. A single switch answers to the
	// packet's source address and ignores it; a replicated chain needs it
	// because the member emitting the grant (the tail) is not the member
	// that received the request (the head). Zero means "unset" (pre-chain
	// clients); receivers then fall back to the datagram source address.
	ClientPort uint16
	// LeaseNs is the absolute expiry time of the lock lease in nanoseconds
	// of the NetLock clock, set by the switch/server when granting (§4.5).
	// On Acquire it carries the client's requested lease duration.
	LeaseNs int64
}

// Errors returned by DecodeFromBytes.
var (
	ErrTooShort   = errors.New("wire: buffer shorter than NetLock header")
	ErrBadVersion = errors.New("wire: unsupported NetLock header version")
	ErrBadOp      = errors.New("wire: undefined NetLock op")
)

// AppendTo appends the 32-byte encoding of h to dst and returns the extended
// slice. It never allocates if dst has capacity.
//
// Layout (big-endian):
//
//	0  version(1) op(1) mode(1) flags(1)
//	4  lockID(4)
//	8  txnID(8)
//	16 clientIP(4) tenantID(1) priority(1) clientPort(2)
//	24 leaseNs(8)
func (h *Header) AppendTo(dst []byte) []byte {
	var b [HeaderLen]byte
	b[0] = Version
	b[1] = uint8(h.Op)
	b[2] = uint8(h.Mode)
	b[3] = uint8(h.Flags)
	binary.BigEndian.PutUint32(b[4:8], h.LockID)
	binary.BigEndian.PutUint64(b[8:16], h.TxnID)
	if h.ClientIP.Is4() {
		a4 := h.ClientIP.As4()
		copy(b[16:20], a4[:])
	}
	b[20] = h.TenantID
	b[21] = h.Priority
	binary.BigEndian.PutUint16(b[22:24], h.ClientPort)
	binary.BigEndian.PutUint64(b[24:32], uint64(h.LeaseNs))
	return append(dst, b[:]...)
}

// Marshal returns a freshly allocated encoding of h.
func (h *Header) Marshal() []byte {
	return h.AppendTo(make([]byte, 0, HeaderLen))
}

// DecodeFromBytes parses a NetLock header from data into h, overwriting all
// fields. It does not retain data.
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrTooShort, len(data))
	}
	if data[0] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, data[0])
	}
	op := Op(data[1])
	if !op.Valid() {
		return fmt.Errorf("%w: %d", ErrBadOp, data[1])
	}
	h.Op = op
	h.Mode = Mode(data[2] & 1)
	h.Flags = Flags(data[3])
	h.LockID = binary.BigEndian.Uint32(data[4:8])
	h.TxnID = binary.BigEndian.Uint64(data[8:16])
	h.ClientIP = netip.AddrFrom4([4]byte(data[16:20]))
	h.TenantID = data[20]
	h.Priority = data[21]
	h.ClientPort = binary.BigEndian.Uint16(data[22:24])
	h.LeaseNs = int64(binary.BigEndian.Uint64(data[24:32]))
	return nil
}

// String renders the header for logs and test failures.
func (h *Header) String() string {
	return fmt.Sprintf("%s %s lock=%d txn=%d client=%s tenant=%d prio=%d flags=%03b lease=%d",
		h.Op, h.Mode, h.LockID, h.TxnID, h.ClientIP, h.TenantID, h.Priority, h.Flags, h.LeaseNs)
}

// IsRequest reports whether the packet is client-originated (acquire or
// release), i.e. subject to lock-table processing.
func (h *Header) IsRequest() bool { return h.Op == OpAcquire || h.Op == OpRelease }
