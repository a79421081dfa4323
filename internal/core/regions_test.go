package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"netlock/internal/check"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

func TestRegionAllocFirstFit(t *testing.T) {
	a := newRegionAllocator(100)
	iv1, ok := a.alloc(30)
	if !ok || iv1 != (switchdp.Region{Left: 0, Right: 30}) {
		t.Fatalf("alloc = %v %v", iv1, ok)
	}
	iv2, ok := a.alloc(70)
	if !ok || iv2 != (switchdp.Region{Left: 30, Right: 100}) {
		t.Fatalf("alloc = %v %v", iv2, ok)
	}
	if _, ok := a.alloc(1); ok {
		t.Fatalf("allocation from empty space should fail")
	}
	if a.freeSlots() != 0 {
		t.Fatalf("free = %d", a.freeSlots())
	}
}

func TestRegionReleaseCoalesces(t *testing.T) {
	a := newRegionAllocator(100)
	iv1, _ := a.alloc(30)
	iv2, _ := a.alloc(30)
	iv3, _ := a.alloc(40)
	a.release(iv1)
	a.release(iv3)
	if a.largestFree() != 40 {
		t.Fatalf("largest free = %d, want 40", a.largestFree())
	}
	a.release(iv2) // bridges both free blocks
	if a.largestFree() != 100 || len(a.free) != 1 {
		t.Fatalf("coalescing failed: %v", a.free)
	}
}

func TestRegionDoubleFreePanics(t *testing.T) {
	a := newRegionAllocator(100)
	iv, _ := a.alloc(10)
	a.release(iv)
	defer func() {
		if recover() == nil {
			t.Fatalf("double free should panic")
		}
	}()
	a.release(iv)
}

func TestRegionInvalidFreePanics(t *testing.T) {
	a := newRegionAllocator(100)
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid free should panic")
		}
	}()
	a.release(switchdp.Region{Left: 50, Right: 200})
}

func TestRegionFragmentationMetric(t *testing.T) {
	a := newRegionAllocator(100)
	if a.fragmentation() != 0 {
		t.Fatalf("fresh allocator fragmentation = %f", a.fragmentation())
	}
	// Create a checkerboard: alloc 10x10, free every other one.
	var ivs []switchdp.Region
	for i := 0; i < 10; i++ {
		iv, _ := a.alloc(10)
		ivs = append(ivs, iv)
	}
	for i := 0; i < 10; i += 2 {
		a.release(ivs[i])
	}
	f := a.fragmentation()
	if f <= 0.7 {
		t.Fatalf("checkerboard fragmentation = %f, want > 0.7", f)
	}
	for i := 1; i < 10; i += 2 {
		a.release(ivs[i])
	}
	if a.fragmentation() != 0 || a.freeSlots() != 100 {
		t.Fatalf("full release left frag=%f free=%d", a.fragmentation(), a.freeSlots())
	}
}

func TestRegionZeroAllocPanics(t *testing.T) {
	a := newRegionAllocator(10)
	defer func() {
		if recover() == nil {
			t.Fatalf("zero alloc should panic")
		}
	}()
	a.alloc(0)
}

func TestNewRegionAllocatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero size should panic")
		}
	}()
	newRegionAllocator(0)
}

// Property: after any interleaving of allocs and frees, the free list is
// sorted, non-overlapping, coalesced, and accounts for exactly the
// unallocated space.
func TestRegionAllocatorInvariantProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newRegionAllocator(256)
		var live []switchdp.Region
		allocated := uint64(0)
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := uint64(op%32) + 1
				if iv, ok := a.alloc(n); ok {
					live = append(live, iv)
					allocated += n
				}
			} else {
				i := rng.Intn(len(live))
				iv := live[i]
				live = append(live[:i], live[i+1:]...)
				a.release(iv)
				allocated -= iv.Right - iv.Left
			}
			// Invariants.
			if a.freeSlots() != 256-allocated {
				return false
			}
			for j := 1; j < len(a.free); j++ {
				if a.free[j-1].Right >= a.free[j].Left {
					return false // unsorted, overlapping, or uncoalesced
				}
			}
		}
		return true
	}
	for _, seed := range check.SeedsN(3) {
		cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%v\nreproduce with: go test -run %s %s", err, t.Name(), check.ReplayArgs(seed))
		}
	}
}

// TestLayoutSplit pins the bank split both planes use: round up to one slot
// per bank, remainder to the low banks, each bank widened to its live queue.
func TestLayoutSplit(t *testing.T) {
	l := NewLayout(3, 64)
	live := [][]wire.LockEntry{nil, make([]wire.LockEntry, 9)}
	for _, c := range []struct {
		slots uint64
		live  [][]wire.LockEntry
		sizes []uint64
		total uint64
	}{
		{0, nil, []uint64{1, 1, 1}, 3},
		{2, nil, []uint64{1, 1, 1}, 3},
		{8, nil, []uint64{3, 3, 2}, 8},
		{8, live, []uint64{3, 9, 2}, 14},
	} {
		sizes, total := l.Split(c.slots, c.live)
		if !reflect.DeepEqual(sizes, c.sizes) || total != c.total {
			t.Errorf("Split(%d) = %v/%d, want %v/%d", c.slots, sizes, total, c.sizes, c.total)
		}
	}
}

// TestLayoutReserveAllOrNothing: a lock is placed in every bank or in none,
// and releasing it returns exactly its regions.
func TestLayoutReserveAllOrNothing(t *testing.T) {
	l := NewLayout(2, 16)
	if _, err := l.Reserve(1, []uint64{8, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve(1, []uint64{1, 1}); err == nil {
		t.Fatal("lock 1 placed twice")
	}
	if _, err := l.Reserve(2, []uint64{4, 12}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overfull bank 1: err = %v, want ErrNoCapacity", err)
	}
	if l.FreeSlots() != 16 || l.Regions(2) != nil {
		t.Fatalf("failed reserve leaked: free=%d regions=%v", l.FreeSlots(), l.Regions(2))
	}
	got, err := l.Reserve(3, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []switchdp.Region{{Left: 8, Right: 16}, {Left: 8, Right: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lock 3 regions = %v, want %v", got, want)
	}
	if p := l.Placement(); !reflect.DeepEqual(p, map[uint32]uint64{1: 16, 3: 16}) {
		t.Fatalf("placement = %v", p)
	}
	l.Release(1)
	if l.FreeSlots() != 16 || !reflect.DeepEqual(l.Locks(), []uint32{3}) {
		t.Fatalf("after release: free=%d locks=%v", l.FreeSlots(), l.Locks())
	}
}
