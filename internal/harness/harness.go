// Package harness regenerates every table and figure of the paper's
// evaluation (§6). One exported function per figure builds the testbed,
// runs the workload, and returns the series/rows the paper plots; the
// cmd/benchrunner binary and the repository-root benchmarks call these.
//
// Absolute numbers come from the calibrated capacity model (see
// internal/cluster); the claims under reproduction are the shapes —
// orderings, ratios, crossovers — recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"io"

	"netlock/internal/cluster"
	"netlock/internal/core"
	"netlock/internal/memalloc"
	"netlock/internal/switchdp"
)

// Options controls experiment scale and reporting.
type Options struct {
	// Quick shrinks warmups/windows and sweep densities so the whole
	// suite runs in CI time; the full mode mirrors the paper's scale.
	Quick bool
	// Out receives human-readable tables (nil: discard).
	Out io.Writer
	// Seed makes runs reproducible.
	Seed int64
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.out(), format, args...)
}

// scale returns quick or full duration values.
func (o Options) scale(quick, full int64) int64 {
	if o.Quick {
		return quick
	}
	return full
}

// us converts nanoseconds to microseconds for reporting.
func us(ns float64) float64 { return ns / 1e3 }

// msI converts an integer nanosecond latency to milliseconds.
func msI(ns int64) float64 { return float64(ns) / 1e6 }

// usI converts an integer nanosecond latency to microseconds.
func usI(ns int64) float64 { return float64(ns) / 1e3 }

// newNetLockManager builds a paper-scale NetLock instance: 100K shared
// queue slots (§5), the given lock servers, and leases driven by the
// testbed clock.
func newNetLockManager(tb *cluster.Testbed, servers, priorities int, totalSlots int) *core.Manager {
	if totalSlots == 0 {
		totalSlots = 100_000
	}
	return core.New(core.Config{
		Switch: switchdp.Config{
			MaxLocks:   16384,
			TotalSlots: totalSlots,
			Priorities: priorities,
			Now:        tb.Eng.Now,
		},
		Servers: servers,
	})
}

// requestMRPS converts a grant rate to the paper's "lock requests per
// second" metric: every granted lock costs an acquire and a release
// message, so the request rate is twice the grant rate.
func requestMRPS(grantRate float64) float64 { return 2 * grantRate / 1e6 }

// preinstall places locks 1..n in the switch with the given per-lock slot
// count, for microbenchmarks whose lock population is known up front.
func preinstall(mgr *core.Manager, n uint32, slots uint64) {
	var demands []memalloc.Demand
	for id := uint32(1); id <= n; id++ {
		demands = append(demands, memalloc.Demand{LockID: id, Rate: 1000, Contention: slots})
	}
	if moves, _ := mgr.Reallocate(demands, nil); len(moves) != int(n) {
		panic(fmt.Sprintf("harness: preinstall placed %d/%d locks", len(moves), n))
	}
}
