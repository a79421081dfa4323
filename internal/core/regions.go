package core

import (
	"fmt"
	"sort"

	"netlock/internal/lockserver"
	"netlock/internal/memalloc"
	"netlock/internal/switchdp"
	"netlock/internal/wire"
)

// The placement ledger: the control plane's sole record of how switch
// queue memory is carved (§4.2–4.3, Fig. 5) and how one measurement
// window's gauges become allocator demands. The embedded Manager and the
// UDP rack's controller (internal/ctrlplane) both place through it, so a
// lock gets the same regions and the same demand on either plane.

// Layout owns the shared queue's region map: one first-fit free list per
// priority bank and the regions every resident lock holds, one per bank.
// Placement is all-or-nothing across banks. Not safe for concurrent use.
type Layout struct {
	banks   []*regionAllocator
	regions map[uint32][]switchdp.Region
}

// NewLayout returns an empty layout of banks banks of bankSlots slots each.
func NewLayout(banks int, bankSlots uint64) *Layout {
	l := &Layout{regions: make(map[uint32][]switchdp.Region)}
	for b := 0; b < max(banks, 1); b++ {
		l.banks = append(l.banks, newRegionAllocator(bankSlots))
	}
	return l
}

// Split is the bank split: slots is rounded up to one slot per bank and
// divided evenly, the remainder going to the low banks, and each bank is
// widened to the depth of its live queue in live (nil for a cold lock) so
// migrated state always fits. It returns the per-bank sizes and their sum.
func (l *Layout) Split(slots uint64, live [][]wire.LockEntry) ([]uint64, uint64) {
	banks := uint64(len(l.banks))
	slots = max(slots, banks)
	sizes := make([]uint64, banks)
	var total uint64
	for b := range sizes {
		sizes[b] = slots / banks
		if uint64(b) < slots%banks {
			sizes[b]++
		}
		if b < len(live) {
			sizes[b] = max(sizes[b], uint64(len(live[b])))
		}
		total += sizes[b]
	}
	return sizes, total
}

// Reserve places lock id with one region of sizes[b] slots in each bank b,
// first fit, and records them. Nothing is claimed on failure.
func (l *Layout) Reserve(id uint32, sizes []uint64) ([]switchdp.Region, error) {
	if _, ok := l.regions[id]; ok {
		return nil, fmt.Errorf("core: lock %d already placed", id)
	}
	if len(sizes) != len(l.banks) {
		return nil, fmt.Errorf("core: %d region sizes for %d banks", len(sizes), len(l.banks))
	}
	regions := make([]switchdp.Region, len(sizes))
	for b, n := range sizes {
		r, ok := l.banks[b].alloc(n)
		if !ok {
			for j := 0; j < b; j++ {
				l.banks[j].release(regions[j])
			}
			return nil, fmt.Errorf("core: %w: no free region of %d slots in bank %d", ErrNoCapacity, n, b)
		}
		regions[b] = r
	}
	l.regions[id] = regions
	return regions, nil
}

// Release frees lock id's regions; a lock with none is a no-op.
func (l *Layout) Release(id uint32) {
	for b, r := range l.regions[id] {
		l.banks[b].release(r)
	}
	delete(l.regions, id)
}

// Regions returns lock id's regions, one per bank, or nil when the lock
// is not placed. The slice is the ledger's own: callers must not modify it.
func (l *Layout) Regions(id uint32) []switchdp.Region { return l.regions[id] }

// Slots returns lock id's total slot count across banks (0 if not placed).
func (l *Layout) Slots(id uint32) uint64 {
	var n uint64
	for _, r := range l.regions[id] {
		n += r.Size()
	}
	return n
}

// Locks returns the placed lock IDs, ascending.
func (l *Layout) Locks() []uint32 {
	ids := make([]uint32, 0, len(l.regions))
	for id := range l.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Placement returns each placed lock's total slot count — the "current"
// input to memalloc.Resolve.
func (l *Layout) Placement() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(l.regions))
	for id := range l.regions {
		out[id] = l.Slots(id)
	}
	return out
}

// Capacity returns the total slots across all banks.
func (l *Layout) Capacity() uint64 { return l.banks[0].size * uint64(len(l.banks)) }

// FreeSlots returns the total unallocated slots across all banks.
func (l *Layout) FreeSlots() uint64 {
	var sum uint64
	for _, a := range l.banks {
		sum += a.freeSlots()
	}
	return sum
}

// Fragmentation returns the worst per-bank fragmentation metric in [0,1].
func (l *Layout) Fragmentation() float64 {
	var worst float64
	for _, a := range l.banks {
		worst = max(worst, a.fragmentation())
	}
	return worst
}

// MergeDemands turns one measurement window's gauges into the per-lock
// demands Algorithm 3 consumes, ascending by lock ID. Switch gauges cover
// resident locks, with the overflow their servers buffered folded into
// contention (the switch gauge cannot count it); server gauges cover the
// locks the servers own.
func MergeDemands(windowSec float64, sw []switchdp.LockLoad, servers []lockserver.LockLoad) []memalloc.Demand {
	if windowSec <= 0 {
		panic("core: non-positive measurement window")
	}
	byID := make(map[uint32]*memalloc.Demand, len(sw))
	for _, l := range sw {
		byID[l.LockID] = &memalloc.Demand{
			LockID:     l.LockID,
			Rate:       float64(l.Requests) / windowSec,
			Contention: l.MaxQueue,
		}
	}
	for _, l := range servers {
		if d, ok := byID[l.LockID]; ok {
			d.Contention += l.BufferedPeak
			continue
		}
		if !l.Owned {
			continue
		}
		byID[l.LockID] = &memalloc.Demand{
			LockID:     l.LockID,
			Rate:       float64(l.Requests) / windowSec,
			Contention: l.MaxConcurrent,
		}
	}
	out := make([]memalloc.Demand, 0, len(byID))
	for _, d := range byID {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LockID < out[j].LockID })
	return out
}

// regionAllocator manages one priority bank's slot space as a set of free
// regions, supporting first-fit allocation, freeing, and the periodic
// compaction the paper calls out ("the memory layout on the switch is
// periodically reorganized to alleviate memory fragmentation", §4.3).
type regionAllocator struct {
	size uint64
	free []switchdp.Region // sorted by Left, non-overlapping, coalesced
}

func newRegionAllocator(size uint64) *regionAllocator {
	if size == 0 {
		panic("core: zero-size region allocator")
	}
	return &regionAllocator{size: size, free: []switchdp.Region{{Left: 0, Right: size}}}
}

// alloc claims a contiguous region of n slots, first-fit.
func (a *regionAllocator) alloc(n uint64) (switchdp.Region, bool) {
	if n == 0 {
		panic("core: zero-size allocation")
	}
	for i, r := range a.free {
		if r.Size() >= n {
			out := switchdp.Region{Left: r.Left, Right: r.Left + n}
			if r.Size() == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].Left += n
			}
			return out, true
		}
	}
	return switchdp.Region{}, false
}

// release returns a region to the free list, coalescing neighbors.
func (a *regionAllocator) release(r switchdp.Region) {
	if r.Right <= r.Left || r.Right > a.size {
		panic(fmt.Sprintf("core: releasing invalid region [%d,%d)", r.Left, r.Right))
	}
	i := sort.Search(len(a.free), func(j int) bool { return a.free[j].Left >= r.Left })
	// Guard against double-free / overlap.
	if i > 0 && a.free[i-1].Right > r.Left {
		panic(fmt.Sprintf("core: double free of region [%d,%d)", r.Left, r.Right))
	}
	if i < len(a.free) && a.free[i].Left < r.Right {
		panic(fmt.Sprintf("core: double free of region [%d,%d)", r.Left, r.Right))
	}
	a.free = append(a.free, switchdp.Region{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = r
	// Coalesce with neighbors.
	if i+1 < len(a.free) && a.free[i].Right == a.free[i+1].Left {
		a.free[i].Right = a.free[i+1].Right
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].Right == a.free[i].Left {
		a.free[i-1].Right = a.free[i].Right
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// freeSlots returns the total free capacity.
func (a *regionAllocator) freeSlots() uint64 {
	var sum uint64
	for _, r := range a.free {
		sum += r.Size()
	}
	return sum
}

// largestFree returns the largest contiguous free region.
func (a *regionAllocator) largestFree() uint64 {
	var best uint64
	for _, r := range a.free {
		best = max(best, r.Size())
	}
	return best
}

// fragmentation is 1 - largestFree/freeSlots: 0 when all free space is one
// block, approaching 1 as free space shatters.
func (a *regionAllocator) fragmentation() float64 {
	total := a.freeSlots()
	if total == 0 {
		return 0
	}
	return 1 - float64(a.largestFree())/float64(total)
}
