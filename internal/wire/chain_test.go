package wire

import (
	"net/netip"
	"testing"
)

func TestChainRoundTrip(t *testing.T) {
	cases := []ChainMsg{
		{Kind: ChainOp, Origin: OriginClient, Epoch: 3, Seq: 41, Hdr: Header{
			Op: OpAcquire, Mode: Exclusive, LockID: 7, TxnID: 99,
			ClientIP: netip.AddrFrom4([4]byte{10, 99, 0, 4}), ClientPort: 4101,
			TenantID: 2, Priority: 1, LeaseNs: 12345,
		}},
		{Kind: ChainOp, Origin: OriginCtrl, Epoch: 1, Seq: 1, Hdr: Header{
			Op: OpRelease, LockID: 1, TxnID: 8,
			ClientIP: netip.AddrFrom4([4]byte{10, 99, 0, 9}),
		}},
		{Kind: ChainRelay, Origin: OriginServer, Epoch: 9, Hdr: Header{
			Op: OpGrant, LockID: 3, TxnID: 5,
			ClientIP: netip.AddrFrom4([4]byte{10, 99, 0, 1}), ClientPort: 1,
		}},
		{Kind: ChainAck, Epoch: 4, Seq: 1 << 40},
		{Kind: ChainNack, Epoch: 4, Seq: 7},
	}
	for _, want := range cases {
		data := want.AppendTo(nil)
		if want.Kind == ChainAck || want.Kind == ChainNack {
			if len(data) != ChainHdrLen {
				t.Fatalf("ack frame len = %d, want %d", len(data), ChainHdrLen)
			}
		} else if len(data) != ChainOpLen {
			t.Fatalf("op frame len = %d, want %d", len(data), ChainOpLen)
		}
		if !IsChain(data) {
			t.Fatalf("IsChain = false for %s", want.String())
		}
		if IsBatch(data) || data[0] == Version {
			t.Fatalf("chain frame collides with batch/header classification")
		}
		var got ChainMsg
		if err := got.DecodeFromBytes(data); err != nil {
			t.Fatalf("decode %s: %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
		if got.String() == "" {
			t.Fatalf("empty String()")
		}
	}
}

func TestChainDecodeErrors(t *testing.T) {
	var m ChainMsg
	if err := m.DecodeFromBytes([]byte{Version, 1, 2}); err != ErrNotChain {
		t.Fatalf("non-chain data: err = %v, want ErrNotChain", err)
	}
	if err := m.DecodeFromBytes([]byte{ChainMagic, Version, byte(ChainOp)}); err == nil {
		t.Fatalf("truncated prefix: expected error")
	}
	full := (&ChainMsg{Kind: ChainOp, Origin: OriginClient, Epoch: 1, Seq: 1,
		Hdr: Header{Op: OpAcquire, ClientIP: netip.AddrFrom4([4]byte{10, 0, 0, 1})}}).AppendTo(nil)
	bad := append([]byte(nil), full...)
	bad[1] = 99
	if err := m.DecodeFromBytes(bad); err == nil {
		t.Fatalf("bad version: expected error")
	}
	bad = append(bad[:0], full...)
	bad[2] = 77
	if err := m.DecodeFromBytes(bad); err == nil {
		t.Fatalf("bad kind: expected error")
	}
	if err := m.DecodeFromBytes(full[:ChainHdrLen+4]); err == nil {
		t.Fatalf("truncated header: expected error")
	}
}

func TestChainAllocFree(t *testing.T) {
	msg := ChainMsg{Kind: ChainOp, Origin: OriginClient, Epoch: 2, Seq: 7,
		Hdr: Header{Op: OpAcquire, LockID: 1, TxnID: 2, ClientIP: netip.AddrFrom4([4]byte{10, 0, 0, 1})}}
	buf := make([]byte, 0, ChainOpLen)
	var out ChainMsg
	allocs := testing.AllocsPerRun(200, func() {
		buf = msg.AppendTo(buf[:0])
		if err := out.DecodeFromBytes(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("chain encode/decode allocates %.1f/op, want 0", allocs)
	}
}
