// Package tpcc generates the lock sets of TPC-C transactions, the
// application workload of the paper's evaluation (§6.1, Figures 10–14).
//
// The generator produces what the lock manager sees: for each transaction
// of the standard mix (New-Order 45%, Payment 43%, Order-Status 4%,
// Delivery 4%, Stock-Level 4%), the set of locks the transaction takes with
// their modes, plus the in-memory execution time. SQL execution is think
// time, exactly how the paper uses TPC-C against DSLR.
//
// Contention follows the paper's two settings: a low-contention
// configuration with ten warehouses per client node and a high-contention
// configuration with one warehouse per node. Payment's exclusive warehouse
// lock and New-Order's exclusive district lock make warehouses/districts
// the hot spots as warehouse count shrinks.
//
// Lock IDs encode (table, key) in 32 bits. Within a transaction, lock IDs
// are sorted, giving a global acquisition order that excludes deadlock —
// the standard discipline for lock-ordered transaction runtimes.
package tpcc

import (
	"math/rand"
	"sort"

	"netlock/internal/cluster"
	"netlock/internal/wire"
)

// Table identifiers in the lock ID encoding.
const (
	tableWarehouse uint32 = iota + 1
	tableDistrict
	tableCustomer
	tableItem
	tableStock
	tableOrder
)

// Standard TPC-C scale constants.
const (
	DistrictsPerWarehouse = 10
	CustomersPerDistrict  = 3000
	Items                 = 100_000
)

// LockID encodes a (table, key) pair.
func LockID(table uint32, key uint32) uint32 {
	return table<<28 | key&(1<<28-1)
}

// Config parameterizes the generator.
type Config struct {
	// Warehouses is the total warehouse count. The paper's settings are
	// 10*nodes (low contention) and 1*nodes (high contention).
	Warehouses int
	// Nodes is the number of client machines. With HomeWarehouseAffinity,
	// the warehouses partition across nodes: each client draws home
	// transactions from its own Warehouses/Nodes warehouses.
	Nodes int
	// HomeWarehouseAffinity binds each client machine to its home
	// warehouse partition (standard TPC-C); when false, warehouses are
	// chosen uniformly by everyone.
	HomeWarehouseAffinity bool
	// ThinkNs is the in-memory execution time per transaction.
	ThinkNs int64
	// StockPages, when positive, locks the stock table at page granularity
	// with StockPages pages per warehouse instead of row granularity. This
	// is the paper's own coarsening rule for uniform distributions (§4.5:
	// "we combine multiple locks into one coarse-grained lock to increase
	// the memory utilization"); stock access is near-uniform, so per-row
	// stock locks would be unplaceable cold locks.
	StockPages int
}

// LowContention returns the paper's low-contention setting for the given
// client node count: ten warehouses per node.
func LowContention(nodes int) Config {
	return Config{Warehouses: 10 * nodes, Nodes: nodes, HomeWarehouseAffinity: true, ThinkNs: 5_000, StockPages: 20}
}

// HighContention returns the paper's high-contention setting: one
// warehouse per node.
func HighContention(nodes int) Config {
	return Config{Warehouses: 1 * nodes, Nodes: nodes, HomeWarehouseAffinity: true, ThinkNs: 5_000, StockPages: 500}
}

// Workload generates TPC-C transactions; it implements cluster.Workload.
type Workload struct {
	cfg Config
	// Mix thresholds (cumulative percent): NewOrder, Payment, OrderStatus,
	// Delivery, StockLevel.
	stats Stats
}

// Stats counts generated transactions by type.
type Stats struct {
	NewOrder, Payment, OrderStatus, Delivery, StockLevel uint64
}

// New builds a workload generator.
func New(cfg Config) *Workload {
	if cfg.Warehouses <= 0 {
		panic("tpcc: need at least one warehouse")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	return &Workload{cfg: cfg}
}

// Stats returns the per-type transaction counts generated so far.
func (w *Workload) Stats() Stats { return w.stats }

// MaxLockID bounds the ID space for sizing baseline tables.
func (w *Workload) MaxLockID() uint32 { return LockID(tableOrder+1, 0) }

func (w *Workload) warehouse(client int, rng *rand.Rand) uint32 {
	if w.cfg.HomeWarehouseAffinity {
		per := w.cfg.Warehouses / w.cfg.Nodes
		if per < 1 {
			per = 1
		}
		base := (client % w.cfg.Nodes) * per % w.cfg.Warehouses
		return uint32((base + rng.Intn(per)) % w.cfg.Warehouses)
	}
	return uint32(rng.Intn(w.cfg.Warehouses))
}

func (w *Workload) district(rng *rand.Rand) uint32 { return uint32(rng.Intn(DistrictsPerWarehouse)) }

// NURand is TPC-C's non-uniform random distribution for customer and item
// selection (clause 2.1.6); the constant A depends on the range.
func nuRand(rng *rand.Rand, a, x, y int) int {
	return ((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) % (y - x + 1)) + x
}

func (w *Workload) customerLock(wh, d uint32, rng *rand.Rand) uint32 {
	c := uint32(nuRand(rng, 1023, 0, CustomersPerDistrict-1))
	return LockID(tableCustomer, (wh*DistrictsPerWarehouse+d)*CustomersPerDistrict%(1<<26)+c)
}

func (w *Workload) itemLock(rng *rand.Rand) (item uint32) {
	return uint32(nuRand(rng, 8191, 0, Items-1))
}

// stockLock maps a (warehouse, item) stock row to its lock ID, applying the
// configured page coarsening.
func (w *Workload) stockLock(wh, item uint32) uint32 {
	if w.cfg.StockPages > 0 {
		page := item % uint32(w.cfg.StockPages)
		return LockID(tableStock, wh*uint32(w.cfg.StockPages)%(1<<26)+page)
	}
	return LockID(tableStock, wh*Items%(1<<26)+item)
}

// NextTxn implements cluster.Workload.
func (w *Workload) NextTxn(client int, rng *rand.Rand) cluster.TxnSpec {
	var locks []cluster.Request
	roll := rng.Intn(100)
	wh := w.warehouse(client, rng)
	d := w.district(rng)
	add := func(id uint32, mode wire.Mode) {
		locks = append(locks, cluster.Request{LockID: id, Mode: mode})
	}
	switch {
	case roll < 45: // New-Order
		w.stats.NewOrder++
		add(LockID(tableWarehouse, wh), wire.Shared)
		add(LockID(tableDistrict, wh*DistrictsPerWarehouse+d), wire.Exclusive)
		add(w.customerLock(wh, d, rng), wire.Shared)
		nItems := 5 + rng.Intn(11)
		for i := 0; i < nItems; i++ {
			// The item table is read-only catalog data; lock-based TPC-C
			// runtimes do not lock it. Stock rows are updated and take
			// exclusive locks.
			item := w.itemLock(rng)
			// 1% of stock accesses are remote warehouses.
			sw := wh
			if w.cfg.Warehouses > 1 && rng.Intn(100) == 0 {
				sw = uint32(rng.Intn(w.cfg.Warehouses))
			}
			add(w.stockLock(sw, item), wire.Exclusive)
		}
	case roll < 88: // Payment
		w.stats.Payment++
		add(LockID(tableWarehouse, wh), wire.Exclusive)
		add(LockID(tableDistrict, wh*DistrictsPerWarehouse+d), wire.Exclusive)
		add(w.customerLock(wh, d, rng), wire.Exclusive)
	case roll < 92: // Order-Status
		w.stats.OrderStatus++
		add(w.customerLock(wh, d, rng), wire.Shared)
		add(LockID(tableOrder, wh*DistrictsPerWarehouse+d), wire.Shared)
	case roll < 96: // Delivery
		w.stats.Delivery++
		for dd := uint32(0); dd < DistrictsPerWarehouse; dd++ {
			add(LockID(tableOrder, wh*DistrictsPerWarehouse+dd), wire.Exclusive)
		}
		add(w.customerLock(wh, d, rng), wire.Exclusive)
	default: // Stock-Level
		w.stats.StockLevel++
		add(LockID(tableDistrict, wh*DistrictsPerWarehouse+d), wire.Shared)
		for i := 0; i < 20; i++ {
			add(w.stockLock(wh, w.itemLock(rng)), wire.Shared)
		}
	}
	dedupeSort(&locks)
	return cluster.TxnSpec{Locks: locks, ThinkNs: w.cfg.ThinkNs, Tenant: -1}
}

// dedupeSort orders locks by descending ID (a global order prevents
// deadlock) and merges duplicates, keeping the stronger mode. Descending
// order places the hottest tables (warehouse, then district — the low table
// IDs) last, so a transaction acquires its cold row locks first and holds
// the contended locks only across its think time, the standard hot-lock-last
// discipline of lock-ordered transaction runtimes.
func dedupeSort(locks *[]cluster.Request) {
	ls := *locks
	sort.Slice(ls, func(i, j int) bool { return ls[i].LockID > ls[j].LockID })
	out := ls[:0]
	for _, l := range ls {
		if n := len(out); n > 0 && out[n-1].LockID == l.LockID {
			if l.Mode == wire.Exclusive {
				out[n-1].Mode = wire.Exclusive
			}
			continue
		}
		out = append(out, l)
	}
	*locks = out
}
