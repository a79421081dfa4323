package wire

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		Op:       OpAcquire,
		Mode:     Exclusive,
		Flags:    FlagOneRTT,
		LockID:   0xDEADBEEF,
		TxnID:    0x0123456789ABCDEF,
		ClientIP: netip.AddrFrom4([4]byte{10, 0, 1, 42}),
		TenantID: 7,
		Priority: 3,
		LeaseNs:  123456789,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	buf := h.Marshal()
	if len(buf) != HeaderLen {
		t.Fatalf("encoded length = %d, want %d", len(buf), HeaderLen)
	}
	var got Header
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", &got, &h)
	}
}

func TestHeaderAppendToNoRealloc(t *testing.T) {
	h := sampleHeader()
	dst := make([]byte, 0, HeaderLen)
	out := h.AppendTo(dst)
	if &out[0] != &dst[:1][0] {
		t.Fatalf("AppendTo reallocated despite sufficient capacity")
	}
}

func TestHeaderDecodeReuse(t *testing.T) {
	// Decoding into a dirty struct must overwrite every field.
	h1 := sampleHeader()
	h2 := Header{
		Op:       OpRelease,
		Mode:     Shared,
		Flags:    FlagOverflow | FlagResubmit,
		LockID:   1,
		TxnID:    2,
		ClientIP: netip.AddrFrom4([4]byte{192, 168, 0, 1}),
		TenantID: 200,
		Priority: 9,
		LeaseNs:  -1,
	}
	buf := h1.Marshal()
	got := h2
	if err := got.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if got != h1 {
		t.Fatalf("decode did not overwrite all fields: %v", &got)
	}
}

func TestHeaderTooShort(t *testing.T) {
	var h Header
	err := h.DecodeFromBytes(make([]byte, HeaderLen-1))
	if !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestHeaderBadVersion(t *testing.T) {
	h := sampleHeader()
	buf := h.Marshal()
	buf[0] = 99
	err := h.DecodeFromBytes(buf)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestHeaderBadOp(t *testing.T) {
	h := sampleHeader()
	buf := h.Marshal()
	buf[1] = 0
	err := h.DecodeFromBytes(buf)
	if !errors.Is(err, ErrBadOp) {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
	buf[1] = 200
	if err := h.DecodeFromBytes(buf); !errors.Is(err, ErrBadOp) {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{OpAcquire, OpRelease, OpGrant, OpReject, OpPushNotify, OpPush, OpFetch}
	seen := map[string]bool{}
	for _, op := range ops {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("op %d has empty or duplicate name %q", op, s)
		}
		seen[s] = true
		if !op.Valid() {
			t.Fatalf("op %s should be valid", s)
		}
	}
	if Op(0).Valid() || Op(99).Valid() {
		t.Fatalf("undefined ops must be invalid")
	}
	if Op(99).String() != "op(99)" {
		t.Fatalf("unknown op string = %q", Op(99).String())
	}
}

// TestOpValidMatchesNames: Valid is a range check, so an op appended
// without widening the range (or a gap in the numbering) must fail here.
func TestOpValidMatchesNames(t *testing.T) {
	for b := 0; b < 256; b++ {
		o := Op(b)
		_, named := opNames[o]
		if o.Valid() != named {
			t.Errorf("Op(%d).Valid() = %v, but named = %v", b, o.Valid(), named)
		}
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatalf("mode strings wrong: %q %q", Shared.String(), Exclusive.String())
	}
}

func TestIsRequest(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want bool
	}{
		{OpAcquire, true}, {OpRelease, true},
		{OpGrant, false}, {OpReject, false},
		{OpPushNotify, false}, {OpPush, false}, {OpFetch, false},
	} {
		h := Header{Op: tc.op}
		if h.IsRequest() != tc.want {
			t.Errorf("IsRequest(%s) = %v, want %v", tc.op, !tc.want, tc.want)
		}
	}
}

func TestHeaderStringNonEmpty(t *testing.T) {
	h := sampleHeader()
	if h.String() == "" {
		t.Fatalf("header string empty")
	}
}

// Property: every header assembled from arbitrary field values round-trips
// exactly (with mode reduced to its 1-bit wire representation).
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(opRaw uint8, modeRaw uint8, flags uint8, lockID uint32, txnID uint64, ip [4]byte, tenant, prio uint8, lease int64) bool {
		ops := []Op{OpAcquire, OpRelease, OpGrant, OpReject, OpPushNotify, OpPush, OpFetch}
		h := Header{
			Op:       ops[int(opRaw)%len(ops)],
			Mode:     Mode(modeRaw & 1),
			Flags:    Flags(flags),
			LockID:   lockID,
			TxnID:    txnID,
			ClientIP: netip.AddrFrom4(ip),
			TenantID: tenant,
			Priority: prio,
			LeaseNs:  lease,
		}
		var got Header
		if err := got.DecodeFromBytes(h.Marshal()); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is deterministic.
func TestHeaderEncodeDeterministic(t *testing.T) {
	h := sampleHeader()
	if !bytes.Equal(h.Marshal(), h.Marshal()) {
		t.Fatalf("encoding not deterministic")
	}
}

func BenchmarkHeaderEncode(b *testing.B) {
	h := sampleHeader()
	buf := make([]byte, 0, HeaderLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.AppendTo(buf[:0])
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	h := sampleHeader()
	buf := h.Marshal()
	var out Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := out.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}
