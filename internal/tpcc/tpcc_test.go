package tpcc

import (
	"math/rand"
	"testing"

	"netlock/internal/wire"
)

func TestMixDistribution(t *testing.T) {
	w := New(LowContention(10))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		w.NextTxn(i%10, rng)
	}
	s := w.Stats()
	total := s.NewOrder + s.Payment + s.OrderStatus + s.Delivery + s.StockLevel
	if total != 100_000 {
		t.Fatalf("total = %d", total)
	}
	frac := func(n uint64) float64 { return float64(n) / float64(total) }
	if f := frac(s.NewOrder); f < 0.43 || f > 0.47 {
		t.Fatalf("NewOrder fraction = %f, want ~0.45", f)
	}
	if f := frac(s.Payment); f < 0.41 || f > 0.45 {
		t.Fatalf("Payment fraction = %f, want ~0.43", f)
	}
	for name, n := range map[string]uint64{"OrderStatus": s.OrderStatus, "Delivery": s.Delivery, "StockLevel": s.StockLevel} {
		if f := frac(n); f < 0.03 || f > 0.05 {
			t.Fatalf("%s fraction = %f, want ~0.04", name, f)
		}
	}
}

func TestLocksSortedAndDeduped(t *testing.T) {
	w := New(HighContention(10))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10_000; i++ {
		spec := w.NextTxn(i%10, rng)
		if len(spec.Locks) == 0 {
			t.Fatalf("transaction with no locks")
		}
		for j := 1; j < len(spec.Locks); j++ {
			if spec.Locks[j].LockID >= spec.Locks[j-1].LockID {
				t.Fatalf("locks not strictly sorted hot-last: %+v", spec.Locks)
			}
		}
	}
}

func TestDedupeKeepsStrongerMode(t *testing.T) {
	// With a single warehouse, New-Order items can collide; force the
	// general property via the helper directly.
	locks := []struct{ id uint32 }{}
	_ = locks
	w := New(Config{Warehouses: 1, HomeWarehouseAffinity: true})
	rng := rand.New(rand.NewSource(3))
	sawSharedAndExclusiveMerge := false
	for i := 0; i < 50_000 && !sawSharedAndExclusiveMerge; i++ {
		spec := w.NextTxn(0, rng)
		for _, l := range spec.Locks {
			if l.Mode == wire.Exclusive && l.LockID>>28 == tableStock {
				sawSharedAndExclusiveMerge = true
			}
		}
	}
	if !sawSharedAndExclusiveMerge {
		t.Fatalf("no exclusive stock locks generated")
	}
}

func TestHighContentionHotterWarehouses(t *testing.T) {
	count := func(cfg Config) map[uint32]int {
		w := New(cfg)
		rng := rand.New(rand.NewSource(4))
		hits := map[uint32]int{}
		for i := 0; i < 20_000; i++ {
			for _, l := range w.NextTxn(i%10, rng).Locks {
				if l.LockID>>28 == tableWarehouse {
					hits[l.LockID]++
				}
			}
		}
		return hits
	}
	low := count(LowContention(10))   // 100 warehouses
	high := count(HighContention(10)) // 10 warehouses
	if len(high) >= len(low) {
		t.Fatalf("high contention should use fewer warehouses: %d vs %d", len(high), len(low))
	}
	// Per-warehouse load is higher in the high-contention setting.
	maxLow, maxHigh := 0, 0
	for _, n := range low {
		if n > maxLow {
			maxLow = n
		}
	}
	for _, n := range high {
		if n > maxHigh {
			maxHigh = n
		}
	}
	if maxHigh <= maxLow {
		t.Fatalf("hot warehouse load should rise: low=%d high=%d", maxLow, maxHigh)
	}
}

func TestHomeWarehouseAffinity(t *testing.T) {
	// One warehouse per node: client 3 must only touch warehouse 3 (modulo
	// the 1% remote stock accesses, which target the stock table).
	w := New(HighContention(10))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		spec := w.NextTxn(3, rng)
		for _, l := range spec.Locks {
			if l.LockID>>28 == tableWarehouse && l.LockID&(1<<28-1) != 3 {
				t.Fatalf("client 3 touched warehouse %d", l.LockID&(1<<28-1))
			}
		}
	}
	// Ten warehouses per node: client 3 draws from its own ten.
	wl := New(LowContention(10))
	seen := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		for _, l := range wl.NextTxn(3, rng).Locks {
			if l.LockID>>28 == tableWarehouse {
				seen[l.LockID&(1<<28-1)] = true
			}
		}
	}
	if len(seen) < 8 {
		t.Fatalf("low contention client should spread over ~10 home warehouses, saw %d", len(seen))
	}
	for wh := range seen {
		if wh < 30 || wh >= 40 {
			t.Fatalf("client 3 left its partition: warehouse %d", wh)
		}
	}
}

func TestLockIDEncoding(t *testing.T) {
	id := LockID(tableStock, 12345)
	if id>>28 != tableStock || id&(1<<28-1) != 12345 {
		t.Fatalf("encoding broken: %x", id)
	}
}

func TestMaxLockID(t *testing.T) {
	w := New(LowContention(10))
	rng := rand.New(rand.NewSource(6))
	max := w.MaxLockID()
	for i := 0; i < 20_000; i++ {
		for _, l := range w.NextTxn(i%10, rng).Locks {
			if l.LockID >= max {
				t.Fatalf("lock %d >= MaxLockID %d", l.LockID, max)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(Config{Warehouses: 0})
}

func TestNURandRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10_000; i++ {
		v := nuRand(rng, 1023, 0, 2999)
		if v < 0 || v > 2999 {
			t.Fatalf("nuRand out of range: %d", v)
		}
	}
}
