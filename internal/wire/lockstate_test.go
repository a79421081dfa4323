package wire

import (
	"reflect"
	"testing"
)

// Rebase moves every nonzero lease by dst - src, keeps a zero lease (no
// lease) at zero, and leaves its input untouched: a promote that fails
// after the rebase re-imports the original at the server.
func TestLockStateRebase(t *testing.T) {
	cases := []struct {
		name           string
		base, now      int64
		leases, wanted []int64
	}{
		{"forward", 1_000, 5_000, []int64{0, 2_000, 9_000}, []int64{0, 6_000, 13_000}},
		{"backward", 5_000, 1_000, []int64{0, 6_000, 13_000}, []int64{0, 2_000, 9_000}},
		{"same clock", 7_000, 7_000, []int64{0, 8_000}, []int64{0, 8_000}},
		{"expired lease stays nonzero", 10_000, 20_000, []int64{4_000}, []int64{14_000}},
		{"no entries", 1, 2, nil, nil},
	}
	for _, c := range cases {
		in := LockState{LockID: 3, BaseNs: c.base, Banks: [][]LockEntry{nil, nil}}
		for i, l := range c.leases {
			in.Banks[i%2] = append(in.Banks[i%2], LockEntry{
				Hdr: Header{Op: OpAcquire, LockID: 3, TxnID: uint64(i + 1)}, LeaseNs: l, Granted: i == 0,
			})
		}
		orig := LockState{LockID: in.LockID, BaseNs: in.BaseNs}
		for _, bank := range in.Banks {
			orig.Banks = append(orig.Banks, append([]LockEntry(nil), bank...))
		}

		out := in.Rebase(c.now)
		if out.LockID != in.LockID || out.BaseNs != c.now || len(out.Banks) != len(in.Banks) {
			t.Fatalf("%s: rebased header = {%d %d %d banks}", c.name, out.LockID, out.BaseNs, len(out.Banks))
		}
		for i, want := range c.wanted {
			e := out.Banks[i%2][i/2]
			if e.LeaseNs != want {
				t.Errorf("%s: entry %d lease %d, want %d", c.name, i, e.LeaseNs, want)
			}
			if e.Hdr != in.Banks[i%2][i/2].Hdr || e.Granted != in.Banks[i%2][i/2].Granted {
				t.Errorf("%s: entry %d changed beyond its lease: %+v", c.name, i, e)
			}
		}
		if !reflect.DeepEqual(in, orig) {
			t.Errorf("%s: Rebase modified its input: %+v, was %+v", c.name, in, orig)
		}
	}
}
