package main

import (
	"slices"

	"netlock/internal/obs"
)

// metricDef declares one metric: its name, unit and which way is better.
// BENCHMARK.json lists the same names; bench_test.go holds the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a caller of the lock manager feels. Every
// workload reports all of them, from the run with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"acquire_mops", "Mops/s", "higher"},
	{"acquire_p50_us", "us", "lower"},
	{"acquire_p90_us", "us", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A metric whose
// layer is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"wire.header_encode_ns", "ns", "lower"},
	{"wire.header_decode_ns", "ns", "lower"},
	{"wire.batch_encode_ns_per_op", "ns", "lower"},
	{"wire.batch_decode_ns_per_op", "ns", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	{"p4sim.pass_ns", "ns", "lower"},
	{"sharedqueue.enq_deq_ns", "ns", "lower"},
	{"switchdp.pkt_ns", "ns", "lower"},
	{"switchdp.grant_ns", "ns", "lower"},
	{"switchdp.queue_ns", "ns", "lower"},
	{"switchdp.handoff_ns", "ns", "lower"},
	{"switchdp.forward_ns", "ns", "lower"},
	{"switchdp.passes_per_pkt", "count", "lower"},
	{"switchdp.emits_per_pkt", "count", "lower"},
	{"switchdp.allocs_per_pkt", "count", "lower"},
	{"lockserver.pkt_ns", "ns", "lower"},
	{"lockserver.emits_per_pkt", "count", "lower"},
	{"lockserver.allocs_per_pkt", "count", "lower"},
	{"lockserver.queue_wait_p50_us", "us", "lower"},
	{"memalloc.solve_ms", "ms", "lower"},
	{"netlock.acquire_call_ns", "ns", "lower"},
	{"netlock.release_call_ns", "ns", "lower"},
	{"netlock.queued_frac", "frac", "lower"},
	{"netlock.alloc_bytes_per_op", "B", "lower"},
	{"transport.client.submit_ns", "ns", "lower"},
	{"transport.client.release_ns", "ns", "lower"},
	{"transport.client.ops_per_frame", "count", "higher"},
	{"transport.client.frames_out_per_op", "count", "lower"},
	{"transport.switch.frame1_rtt_us", "us", "lower"},
	{"transport.switch.frame41_rtt_us", "us", "lower"},
	{"transport.switch.raw_mops", "Mops/s", "higher"},
	{"transport.switch.ops_per_frame_out", "count", "higher"},
	{"transport.switch.pass_ns_p50", "ns", "lower"},
	{"transport.switch.queued_frac", "frac", "lower"},
	{"transport.switch.forward_frac", "frac", "lower"},
	{"transport.server.pkts_per_op", "count", "lower"},
	{"transport.chain.commit_us", "us", "lower"},
	{"transport.chain.log_len_max", "count", "lower"},
	{"transport.chain.gap_drops", "count", "lower"},
	{"transport.chain.tput_ratio", "frac", "higher"},
	{"ctrlplane.rack_up_ms", "ms", "lower"},
	{"ctrlplane.failhead_call_ms", "ms", "lower"},
	{"ctrlplane.failhead_outage_ms", "ms", "lower"},
	{"tpcc.txn_per_s", "1/s", "higher"},
	{"tpcc.txn_p50_us", "us", "lower"},
	{"tpcc.txn_p99_us", "us", "lower"},
	{"tpcc.locks_per_txn", "count", "lower"},
	{"tpcc.switch_resident_frac", "frac", "higher"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.sys_frac", "frac", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.ledger_unattributed_frac", "frac", "lower"},
	{"bench.gen_ns_per_op", "ns", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.window_iqr_frac", "frac", "lower"},
	{"bench.acquire_p99_us", "us", "lower"},
	{"bench.samples", "count", "higher"},
	{"bench.fail_frac", "frac", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value; units come from the tables above.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// ledgerRow is one line of the per-op CPU attribution: what a layer costs
// in isolation times how often the workload calls it.
type ledgerRow struct {
	Layer      string  `json:"layer"`
	NsPerCall  float64 `json:"ns_per_call"`
	CallsPerOp float64 `json:"calls_per_op"`
	NsPerOp    float64 `json:"ns_per_op"`
}

// tracedRun is everything one workload's traced run measured.
type tracedRun struct {
	ref     *segment // tracing off, short: the base for the overhead figure
	traced  *segment
	costs   layerCosts
	probe   probeResult // probe rack of the workload's chain length
	single  probeResult // one-switch probe rack (udp_chain3 only)
	refMops float64     // udp_shared's throughput (udp_chain3 only)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced run into the per-layer metric set and the
// ledger behind proc.ledger_unattributed_frac.
func layerMetrics(s *spec, tr *tracedRun) (metricSet, []ledgerRow) {
	m := metricSet{}
	lc, sg := tr.costs, tr.traced
	m["wire.header_encode_ns"] = lc.hdrEncNs
	m["wire.header_decode_ns"] = lc.hdrDecNs
	m["wire.batch_encode_ns_per_op"] = lc.batchEncNs
	m["wire.batch_decode_ns_per_op"] = lc.batchDecNs
	m["wire.allocs_per_op"] = lc.wireAllocs
	m["p4sim.pass_ns"] = lc.p4PassNs
	m["sharedqueue.enq_deq_ns"] = lc.sqEnqDeqNs
	m["switchdp.pkt_ns"] = lc.dpPktNs
	m["switchdp.grant_ns"] = lc.dpGrantNs
	m["switchdp.queue_ns"] = lc.dpQueueNs
	m["switchdp.handoff_ns"] = lc.dpHandoffNs
	m["switchdp.forward_ns"] = lc.dpFwdNs
	m["switchdp.passes_per_pkt"] = lc.dpPasses
	m["switchdp.emits_per_pkt"] = lc.dpEmits
	m["switchdp.allocs_per_pkt"] = lc.dpAllocs
	m["lockserver.pkt_ns"] = lc.lsPktNs
	m["lockserver.emits_per_pkt"] = lc.lsEmits
	m["lockserver.allocs_per_pkt"] = lc.lsAllocs
	m["memalloc.solve_ms"] = lc.solveMs
	m["bench.gen_ns_per_op"] = lc.genNs

	ops := float64(sg.ops)
	b, a := &sg.before, &sg.after
	var submitNs, submitN, releaseNs, releaseN int64
	for _, r := range sg.recs {
		submitNs += r.submitNs
		submitN += r.submitN
		releaseNs += r.releaseNs
		releaseN += r.releaseN
	}
	acquires := float64(a.tail.Acquires - b.tail.Acquires)
	dpPkts := div(float64(a.dpPkts-b.dpPkts), ops)
	srvPkts := div(float64(a.srvPkts-b.srvPkts), ops)
	if !s.udp {
		m["netlock.acquire_call_ns"] = div(float64(submitNs), float64(submitN))
		m["netlock.release_call_ns"] = div(float64(releaseNs), float64(releaseN))
		m["netlock.queued_frac"] = div(float64(a.tail.GrantsQueued-b.tail.GrantsQueued), acquires)
		m["netlock.alloc_bytes_per_op"] = div(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	} else {
		cli, sw, srv := sg.in.cliObs.Snapshot(), sg.in.swObs.Snapshot(), sg.in.srvObs.Snapshot()
		m["transport.client.submit_ns"] = div(float64(submitNs), float64(submitN))
		m["transport.client.release_ns"] = div(float64(releaseNs), float64(releaseN))
		m["transport.client.ops_per_frame"] = cli.Stage(obs.StageEgressBatch).Mean()
		m["transport.client.frames_out_per_op"] = div(float64(cli.Counter(obs.CtrFramesOut)), float64(sg.granted))
		m["transport.switch.ops_per_frame_out"] = sw.Stage(obs.StageEgressBatch).Mean()
		m["transport.switch.pass_ns_p50"] = float64(sw.Stage(obs.StageSwitchPass).Percentile(50))
		m["transport.switch.queued_frac"] = div(float64(a.tail.Queued-b.tail.Queued), acquires)
		m["transport.switch.forward_frac"] = div(
			float64(a.tail.Forwards+a.tail.Overflows-b.tail.Forwards-b.tail.Overflows),
			acquires+float64(a.tail.Releases-b.tail.Releases))
		m["transport.server.pkts_per_op"] = srvPkts
		m["lockserver.queue_wait_p50_us"] = float64(srv.Stage(obs.StageServerQueue).Percentile(50)) / 1e3
		m["transport.switch.frame1_rtt_us"] = tr.probe.frame1us
		m["transport.switch.frame41_rtt_us"] = tr.probe.frame41us
		m["transport.switch.raw_mops"] = tr.probe.rawMops
		m["ctrlplane.rack_up_ms"] = sg.rackUpMs
	}
	if s.chain > 1 {
		m["transport.chain.commit_us"] = tr.probe.frame41us - tr.single.frame41us
		m["transport.chain.log_len_max"] = float64(sg.logLenMax)
		m["transport.chain.gap_drops"] = float64(a.gapDrops)
		m["transport.chain.tput_ratio"] = div(tr.ref.medianMops(), tr.refMops)
	}
	if s.failHead {
		m["ctrlplane.failhead_call_ms"] = sg.failCallMs
		m["ctrlplane.failhead_outage_ms"] = sg.failOutageMs
	}
	if s.tpcc {
		perS, lat := sg.txnWindows()
		var txns, locks uint64
		for _, r := range sg.recs {
			txns += r.txnCount
			locks += r.txnLocks
		}
		m["tpcc.txn_per_s"] = median(perS)
		m["tpcc.txn_p50_us"] = percentileNs(lat, 0.50) / 1e3
		m["tpcc.txn_p99_us"] = percentileNs(lat, 0.99) / 1e3
		m["tpcc.locks_per_txn"] = div(float64(locks), float64(txns))
		m["tpcc.switch_resident_frac"] = sg.place.residentFrac
	}

	cpu := float64(a.cpuUser + a.cpuSys - b.cpuUser - b.cpuSys)
	cpuNsPerOp := div(cpu, ops)
	m["proc.cpu_us_per_op"] = cpuNsPerOp / 1e3
	m["proc.sys_frac"] = div(float64(a.cpuSys-b.cpuSys), cpu)
	m["proc.alloc_bytes_per_op"] = div(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops)
	m["proc.allocs_per_op"] = div(float64(a.mem.Mallocs-b.mem.Mallocs), ops)
	m["proc.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)

	// The ledger: isolated cost per call times calls per op, against the
	// CPU the process burned per op. p4sim and sharedqueue run inside
	// switchdp and are not added again.
	rows := []ledgerRow{
		{Layer: "bench (generator)", NsPerCall: lc.genNs, CallsPerOp: 1},
		{Layer: "switchdp", NsPerCall: lc.dpPktNs, CallsPerOp: dpPkts},
		{Layer: "lockserver", NsPerCall: lc.lsPktNs, CallsPerOp: srvPkts},
	}
	if s.udp {
		// Every op is an acquire and a release, each encoded by the client
		// and decoded by the switch, and a grant and an ack going back; a
		// lock-server packet adds a hop each way; each further chain member
		// re-encodes and decodes both ops.
		hops := 4 + 2*srvPkts + 2*float64(a.members-1)
		rows = append(rows,
			ledgerRow{Layer: "wire encode", NsPerCall: lc.batchEncNs, CallsPerOp: hops},
			ledgerRow{Layer: "wire decode", NsPerCall: lc.batchDecNs, CallsPerOp: hops})
	}
	var sum float64
	for i := range rows {
		rows[i].NsPerOp = rows[i].NsPerCall * rows[i].CallsPerOp
		sum += rows[i].NsPerOp
	}
	slices.SortFunc(rows, func(x, y ledgerRow) int {
		switch {
		case x.NsPerOp > y.NsPerOp:
			return -1
		case x.NsPerOp < y.NsPerOp:
			return 1
		}
		return 0
	})
	if cpuNsPerOp > 0 {
		m["proc.ledger_unattributed_frac"] = 1 - sum/cpuNsPerOp
	}

	m["bench.trace_overhead_frac"] = 1 - div(sg.medianMops(), tr.ref.medianMops())
	m["bench.window_iqr_frac"] = iqrFrac(tr.ref.mops)
	m["bench.acquire_p99_us"] = median(tr.ref.p99us)
	m["bench.samples"] = float64(tr.ref.samples)
	m["bench.fail_frac"] = div(float64(tr.ref.failed+sg.failed), float64(tr.ref.attempted+sg.attempted))
	return m, rows
}

// endToEndMetrics turns an untraced segment and the set-up repetitions into
// the end-to-end metric set.
func endToEndMetrics(sg *segment, setups []float64) metricSet {
	return metricSet{
		"setup_s":        median(setups),
		"acquire_mops":   median(sg.mops),
		"acquire_p50_us": median(sg.p50us),
		"acquire_p90_us": median(sg.p90us),
	}
}
