package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Chain frames carry the replication protocol of a NetChain-style switch
// chain (internal/transport). The head of the chain assigns a sequence
// number to every state-mutating NetLock op and propagates it down the
// chain wrapped in a ChainMsg; each member applies the same deterministic
// op stream to its own data-plane replica, and only the tail emits
// externally-visible packets. The tail acknowledges applied prefixes back
// up the chain so members can prune their replay logs; a member that finds
// a gap in its op stream nacks its applied prefix to the sender, which
// re-sends the missing range. Acks only prune and nacks only trigger the
// re-send, so each op crosses each link once unless a frame is lost.
//
// Layout (big-endian), disjoint from both the bare header (first byte =
// Version) and batch frames (first byte = BatchMagic):
//
//	0  magic(1)=0xC7  version(1)=1  kind(1)  origin(1)
//	4  epoch(8)
//	12 seq(8)            — ChainAck and ChainNack end here
//	20 header(32)        — ChainOp and ChainRelay only
const (
	// ChainMagic is the first byte of every chain frame.
	ChainMagic = 0xC7
	// ChainHdrLen is the length of the fixed chain prefix (before the
	// embedded NetLock header, if any).
	ChainHdrLen = 20
	// ChainOpLen is the full length of a ChainOp / ChainRelay frame.
	ChainOpLen = ChainHdrLen + HeaderLen
)

// ChainKind discriminates chain frame types.
type ChainKind uint8

const (
	// ChainOp is a sequenced op propagating head→tail. Epoch and Seq are
	// meaningful; the receiver applies Hdr iff Seq is the next expected.
	ChainOp ChainKind = iota + 1
	// ChainAck is the tail's applied-prefix acknowledgement (Seq = highest
	// applied sequence number); carries no header.
	ChainAck
	// ChainRelay is an unsequenced op forwarded by a non-head member to
	// the head (a client or server addressed a stale member). Seq is zero;
	// Origin classifies the original sender. Relays are never re-relayed:
	// a non-head receiving one drops it, which bounds routing loops during
	// reconfiguration.
	ChainRelay
	// ChainNack reports a gap: the receiver got an op past Seq+1, where
	// Seq is its applied prefix, and dropped it. The sender re-sends its
	// log above Seq. Same layout as ChainAck.
	ChainNack
)

// ChainOrigin classifies who originated the op embedded in a chain frame.
// Members need it because the same op code means different things from
// different senders (e.g. an OpRelease from a client dequeues a holder,
// while an OpRelease from the lease sweep also purges dedup state).
type ChainOrigin uint8

const (
	OriginClient ChainOrigin = iota
	OriginServer
	OriginCtrl
)

// ChainMsg is a decoded chain frame. One value can be reused across frames
// via DecodeFromBytes.
type ChainMsg struct {
	Kind   ChainKind
	Origin ChainOrigin
	Epoch  uint64
	Seq    uint64
	Hdr    Header // valid for ChainOp and ChainRelay
}

// Errors returned by ChainMsg.DecodeFromBytes.
var (
	ErrNotChain     = errors.New("wire: not a chain frame")
	ErrBadChainKind = errors.New("wire: undefined chain frame kind")
)

// IsChain reports whether data begins with a chain frame magic byte.
func IsChain(data []byte) bool {
	return len(data) > 0 && data[0] == ChainMagic
}

// AppendTo appends the encoding of m to dst and returns the extended slice.
// It never allocates if dst has capacity.
func (m *ChainMsg) AppendTo(dst []byte) []byte {
	var b [ChainHdrLen]byte
	b[0] = ChainMagic
	b[1] = Version
	b[2] = uint8(m.Kind)
	b[3] = uint8(m.Origin)
	binary.BigEndian.PutUint64(b[4:12], m.Epoch)
	binary.BigEndian.PutUint64(b[12:20], m.Seq)
	dst = append(dst, b[:]...)
	if m.Len() == ChainOpLen {
		dst = m.Hdr.AppendTo(dst)
	}
	return dst
}

// Len is the encoded length of m: ChainOpLen for ops and relays, which
// embed a header, ChainHdrLen for acks and nacks.
func (m *ChainMsg) Len() int {
	if m.Kind == ChainOp || m.Kind == ChainRelay {
		return ChainOpLen
	}
	return ChainHdrLen
}

// DecodeFromBytes parses a chain frame from data into m, overwriting all
// fields. It does not retain data.
func (m *ChainMsg) DecodeFromBytes(data []byte) error {
	if !IsChain(data) {
		return ErrNotChain
	}
	if len(data) < ChainHdrLen {
		return fmt.Errorf("%w: %d bytes", ErrTooShort, len(data))
	}
	if data[1] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, data[1])
	}
	kind := ChainKind(data[2])
	if kind < ChainOp || kind > ChainNack {
		return fmt.Errorf("%w: %d", ErrBadChainKind, data[2])
	}
	m.Kind = kind
	m.Origin = ChainOrigin(data[3])
	m.Epoch = binary.BigEndian.Uint64(data[4:12])
	m.Seq = binary.BigEndian.Uint64(data[12:20])
	if m.Len() == ChainHdrLen {
		m.Hdr = Header{}
		return nil
	}
	return m.Hdr.DecodeFromBytes(data[ChainHdrLen:])
}

// String renders the frame for logs and test failures.
func (m *ChainMsg) String() string {
	switch m.Kind {
	case ChainAck:
		return fmt.Sprintf("chain-ack epoch=%d applied=%d", m.Epoch, m.Seq)
	case ChainNack:
		return fmt.Sprintf("chain-nack epoch=%d applied=%d", m.Epoch, m.Seq)
	case ChainRelay:
		return fmt.Sprintf("chain-relay epoch=%d origin=%d {%s}", m.Epoch, m.Origin, m.Hdr.String())
	default:
		return fmt.Sprintf("chain-op epoch=%d seq=%d origin=%d {%s}", m.Epoch, m.Seq, m.Origin, m.Hdr.String())
	}
}
