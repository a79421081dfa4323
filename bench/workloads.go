package main

import (
	"math/rand"
	"sort"

	"netlock"
	"netlock/internal/ctrlplane"
	"netlock/internal/memalloc"
	"netlock/internal/switchdp"
	"netlock/internal/tpcc"
	"netlock/internal/wire"
)

// lockReq is one generated lock request.
type lockReq struct {
	id   uint32
	excl bool
}

func (r lockReq) mode() netlock.Mode {
	if r.excl {
		return netlock.Exclusive
	}
	return netlock.Shared
}

func (r lockReq) wireMode() wire.Mode {
	if r.excl {
		return wire.Exclusive
	}
	return wire.Shared
}

// opSource generates one generator's op stream from its seed. next appends
// the next lock set to buf: one lock on the micro workloads, a whole
// transaction's sorted lock set on udp_tpcc. The system under test never
// sees the RNG, only the ops.
type opSource interface {
	next(buf []lockReq) []lockReq
}

// uniformSource picks uniformly from a fixed lock list, one fixed mode.
type uniformSource struct {
	rng  *rand.Rand
	ids  []uint32
	excl bool
}

func (s *uniformSource) next(buf []lockReq) []lockReq {
	return append(buf, lockReq{id: s.ids[s.rng.Intn(len(s.ids))], excl: s.excl})
}

// tpccSource yields TPC-C lock sets. Each worker owns its generator:
// tpcc.Workload counts transactions in plain fields.
type tpccSource struct {
	rng    *rand.Rand
	w      *tpcc.Workload
	client int
}

func (s *tpccSource) next(buf []lockReq) []lockReq {
	for _, l := range s.w.NextTxn(s.client, s.rng).Locks {
		buf = append(buf, lockReq{id: l.LockID, excl: l.Mode == wire.Exclusive})
	}
	return buf
}

// genKind is how a workload keeps its ops in flight.
type genKind int

const (
	// genBlocking: each goroutine makes blocking Acquire calls, one lock
	// set at a time (the embedded API and udp_tpcc's transactions).
	genBlocking genKind = iota
	// genAsync: a few generator goroutines each keep a share of a fixed
	// window in flight through AcquireFunc completions.
	genAsync
)

// spec declares one workload. The table in workloadSpecs is the only place
// that knows workload names; the system under test sees generated ops only.
type spec struct {
	name string
	why  string
	udp  bool
	kind genKind
	// workers is the goroutine count: blocking callers, or async
	// generators (0 = GOMAXPROCS).
	workers int
	// inflight is the async window, split evenly over the generators.
	inflight int
	locks    int  // size of the lock set (micro workloads)
	excl     bool // lock mode (micro workloads)
	resident bool // locks are switch-resident before traffic
	slots    int  // queue slots per resident lock
	chain    int  // switch chain length
	tpcc     bool
	// disjoint gives every worker its own lock set, mapped to its own
	// Manager shard.
	disjoint bool
	// sample times one acquire in this many (the embedded op is ~0.5 µs;
	// two clock reads per op are not free).
	sample int
	// spanStride keeps the spans of one timed op in this many, so a traced
	// run's span file stays in the tens of megabytes.
	spanStride int
	// primeOps is the fixed op count the set-up phase completes.
	primeOps int
	failHead bool
}

const (
	tpccWorkers     = 8
	tpccSwitchSlots = 4096
	tpccSampleTxns  = 20000
)

var workloadSpecs = []spec{
	{
		name: "emb_disjoint",
		why:  "embedded Manager, a goroutine per proc, each on its own 64 exclusive locks and shard: data plane and shard mutex are the work, no sockets, no waiting",
		kind: genBlocking, locks: 64, excl: true, resident: true, slots: 16, disjoint: true,
		sample: 64, spanStride: 16, primeOps: 100000,
	},
	{
		name: "emb_contended",
		why:  "embedded Manager, 8 goroutines on 1 exclusive switch lock: every acquire queues and every release hands off to a waiter",
		kind: genBlocking, workers: 8, locks: 1, excl: true, resident: true, slots: 16,
		sample: 64, spanStride: 16, primeOps: 100000,
	},
	{
		name: "udp_shared",
		why:  "one-switch UDP rack, 64 shared switch locks, 256 in flight: immediate grants in full frames, so client, switch node and syscalls are the cost",
		udp:  true, kind: genAsync, inflight: 256, locks: 64, resident: true, slots: 128, chain: 1,
		sample: 1, spanStride: 64, primeOps: 30000,
	},
	{
		name: "udp_excl_hot",
		why:  "same rack, 16 exclusive switch locks, 128 in flight: most ops queue, every grant is a release hand-off, frames run nearly empty",
		udp:  true, kind: genAsync, inflight: 128, locks: 16, excl: true, resident: true, slots: 128, chain: 1,
		sample: 1, spanStride: 4, primeOps: 1000,
	},
	{
		name: "udp_server",
		why:  "same rack, nothing switch-resident, 1024 exclusive locks, 128 in flight: every op leaves the fast path through a lock server",
		udp:  true, kind: genAsync, inflight: 128, locks: 1024, excl: true, chain: 1,
		sample: 1, spanStride: 64, primeOps: 20000,
	},
	{
		name: "udp_chain3",
		why:  "udp_shared's rack and locks on a 3-member switch chain, 128 in flight, head killed after the timed windows: chain sequencing, replication datagrams and tail acks dominate",
		udp:  true, kind: genAsync, inflight: 128, locks: 64, resident: true, slots: 128, chain: 3,
		sample: 1, spanStride: 64, primeOps: 10000, failHead: true,
	},
	{
		name: "udp_tpcc",
		why:  "8 workers run TPC-C high-contention lock sets as serial blocking acquires, knapsack placement over a 4096-slot switch and two servers: latency-bound, mixed mode and placement",
		udp:  true, kind: genBlocking, workers: tpccWorkers, chain: 1, tpcc: true,
		sample: 1, spanStride: 4, primeOps: 2000,
	},
}

func findSpec(name string) *spec {
	for i := range workloadSpecs {
		if workloadSpecs[i].name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// nWorkers resolves the goroutine count: the workload's own, or one per
// proc of the run (benchProcs already leaves a CPU free).
func (s *spec) nWorkers(procs int) int {
	if s.workers > 0 {
		return s.workers
	}
	return procs
}

// lockIDs lists worker w's lock set on the micro workloads. On
// emb_disjoint the sets are disjoint and each maps to one Manager shard
// (shard = id mod shards, shards = procs); elsewhere every worker draws
// from the same set.
func (s *spec) lockIDs(w, procs int) []uint32 {
	ids := make([]uint32, s.locks)
	for k := range ids {
		if s.disjoint {
			ids[k] = uint32(1 + w + k*procs)
		} else {
			ids[k] = uint32(1 + k)
		}
	}
	return ids
}

// denseIDs is the size of the oracle's dense holder-flag table.
func (s *spec) denseIDs(procs int) int {
	if s.tpcc {
		return 1
	}
	if s.disjoint {
		return 1 + s.locks*procs
	}
	return 1 + s.locks
}

// source builds worker w's op stream. Every RNG derives from the seed.
func (s *spec) source(seed int64, w, procs int) opSource {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
	if s.tpcc {
		return &tpccSource{rng: rng, w: tpcc.New(tpcc.HighContention(2)), client: w}
	}
	return &uniformSource{rng: rng, ids: s.lockIDs(w, procs), excl: s.excl}
}

// placement is what the control plane is told before traffic.
type placement struct {
	dp    switchdp.Config
	locks []ctrlplane.SwitchLock
	// residentFrac is the share of profiled lock requests whose lock is
	// switch-resident under this placement.
	residentFrac float64
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// profile counts lock frequencies over the first n lock sets of the seeded
// stream, the paper's profiling step (§4.5), and returns them as knapsack
// demands plus the number of lock requests seen. Contention is the number of
// concurrent requesters a lock can ever see.
func (s *spec) profile(seed int64, procs, n, contention int) ([]memalloc.Demand, uint64) {
	freq := map[uint32]uint64{}
	workers := s.nWorkers(procs)
	srcs := make([]opSource, workers)
	for w := range srcs {
		srcs[w] = s.source(seed, w, procs)
	}
	var buf []lockReq
	var total uint64
	for i := 0; i < n; i++ {
		buf = srcs[i%workers].next(buf[:0])
		for _, r := range buf {
			freq[r.id]++
			total++
		}
	}
	ds := make([]memalloc.Demand, 0, len(freq))
	for id, f := range freq {
		ds = append(ds, memalloc.Demand{LockID: id, Rate: float64(f), Contention: uint64(contention)})
	}
	// Map order must not leak into the solver's input.
	sort.Slice(ds, func(i, j int) bool { return ds[i].LockID < ds[j].LockID })
	return ds, total
}

// place decides the workload's placement. The micro workloads pin theirs
// (every lock resident, or none); udp_tpcc runs the paper's knapsack over
// profiled demands, and that solve is part of its set-up time.
func (s *spec) place(seed int64, procs int) placement {
	workers := s.nWorkers(procs)
	if s.tpcc {
		ds, total := s.profile(seed, procs, tpccSampleTxns, workers)
		plan := memalloc.Knapsack(ds, tpccSwitchSlots)
		rate := make(map[uint32]float64, len(ds))
		for _, d := range ds {
			rate[d.LockID] = d.Rate
		}
		var p placement
		var hit float64
		for _, a := range plan.Switch {
			p.locks = append(p.locks, ctrlplane.SwitchLock{ID: a.LockID, Slots: int(a.Slots)})
			hit += rate[a.LockID]
		}
		p.residentFrac = hit / float64(total)
		p.dp = switchdp.Config{MaxLocks: nextPow2(len(p.locks) + 1), TotalSlots: tpccSwitchSlots, Priorities: 1}
		return p
	}
	sets := 1
	if s.disjoint {
		sets = workers
	}
	n := s.locks * sets
	slots := s.slots
	if slots == 0 {
		slots = 128 // an empty switch still needs a slot arena
	}
	p := placement{dp: switchdp.Config{MaxLocks: nextPow2(n + 1), TotalSlots: slots * (n + 1), Priorities: 1}}
	if s.resident {
		p.residentFrac = 1
		for w := 0; w < sets; w++ {
			for _, id := range s.lockIDs(w, procs) {
				p.locks = append(p.locks, ctrlplane.SwitchLock{ID: id, Slots: slots})
			}
		}
	}
	return p
}
