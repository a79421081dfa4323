// Package obs is NetLock's observability layer: a lock-free, striped
// metrics registry (atomic counters plus atomic HDR histograms sharing
// internal/stats' bucket geometry) and a pluggable trace-hook interface.
//
// The paper's entire evaluation (§6) is built from per-stage measurements —
// switch-pass latency, server queueing delay, overflow and resubmit counts,
// per-tenant throughput — and this package makes the same measurements
// available live from every plane the reproduction runs on: the embedded
// sharded manager (netlock.Manager.Metrics), the real UDP rack
// (cmd/netlockd's Prometheus endpoint), and the virtual-time testbed
// (internal/cluster).
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every instrumented component holds a *Stripe
//     that is nil when observability is off; all Stripe methods are
//     nil-receiver safe, so the disabled hot path costs one predictable
//     branch per layer and nothing else.
//  2. Enabled must stay allocation-free. Counters are plain atomics;
//     latencies record into fixed-size atomic bucket arrays; trace events
//     are passed by value. The steady-state acquire/release path keeps its
//     0 allocs/op gate with metrics and tracing on (alloc_test.go).
//  3. Reads never stop writers. Snapshot loads each atomic once and merges
//     stripes into ordinary stats.Histogram values for percentile math;
//     writers are never locked out, so a snapshot is a consistent-enough
//     cut, not a barrier (unlike Manager.Stats, which stops the shards).
//
// Striping: the registry allocates one Stripe per shard/pipeline (plus one
// ingress stripe); each stripe's atomics are written by an independent
// shard, so enabled-mode recording does not bounce cache lines between
// shards any more than the shards themselves do.
package obs

import "time"

// Event identifies a trace hook point. The hook points mirror the life of a
// request through the paper's architecture (Figure 4): arrival at the ToR,
// data-plane passes and resubmits, overflow to a lock server, grant,
// release, lease reclamation, and failover transitions.
type Event uint8

// Trace hook points.
const (
	// EvPacketIn fires when a request packet enters a data plane
	// (switch or lock server). Arg is the wire op.
	EvPacketIn Event = iota
	// EvSwitchPass fires after one packet finishes the switch pipeline.
	// Arg is the wall-clock processing time in nanoseconds.
	EvSwitchPass
	// EvResubmit fires when a packet consumed pipeline resubmits.
	// Arg is the number of extra passes.
	EvResubmit
	// EvOverflow fires when a switch-resident lock's queue is full and the
	// request is forwarded to its lock server for buffering (§4.3).
	EvOverflow
	// EvGrant fires when a grant (or one-RTT fetch) is issued. Arg is the
	// measured latency in nanoseconds where the emitter knows one
	// (end-to-end at the front ends, queue wait at the servers), else 0.
	EvGrant
	// EvRelease fires when a release is processed.
	EvRelease
	// EvLeaseExpiry fires when the lease sweep force-releases a holder
	// (§4.5).
	EvLeaseExpiry
	// EvFailover fires on a failure-handling transition. Arg is a
	// Failover* code.
	EvFailover
	// NumEvents is the number of defined events.
	NumEvents
)

var eventNames = [NumEvents]string{
	"packet-in", "switch-pass", "resubmit", "overflow",
	"grant", "release", "lease-expiry", "failover",
}

// String returns the event name.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "event(?)"
}

// Failover transition codes carried in TraceEvent.Arg for EvFailover.
const (
	// FailoverSwitchDown is a switch failure: all data-plane state lost.
	FailoverSwitchDown int64 = iota + 1
	// FailoverSwitchUp is a switch reactivation (control-plane reinstall).
	FailoverSwitchUp
	// FailoverServer is a lock-server failure redirected to a replacement.
	FailoverServer
)

// TraceEvent is one hook invocation. It is passed by value so emitting an
// event never allocates.
type TraceEvent struct {
	Event  Event
	LockID uint32
	TxnID  uint64
	Tenant uint8
	// Arg carries the event-specific measurement; see the Event constants.
	Arg int64
}

// Tracer receives trace events from instrumented components. Callbacks run
// inline on the hot path under the emitting component's serialization (one
// shard's events arrive in order, different shards' events concurrently),
// so implementations must be safe for concurrent use and must not block.
type Tracer interface {
	Trace(TraceEvent)
}

// Stage identifies a per-stage latency histogram, one per measurement the
// paper's figures are built from.
type Stage uint8

// Latency stages.
const (
	// StageSwitchPass is the wall-clock time of one switch data-plane
	// ProcessPacket call, resubmit passes included — the software model's
	// analogue of the switch pass latency the paper measures at < 1us.
	StageSwitchPass Stage = iota
	// StageServerQueue is the time a request spends queued at a lock
	// server before its grant (the paper's server queueing delay).
	// Immediate grants do not record; the histogram is the wait of the
	// requests that actually waited.
	StageServerQueue
	// StageAcquireE2E is the end-to-end acquire latency observed by a
	// front end: request submission to grant delivery.
	StageAcquireE2E
	// StageEgressBatch is the size distribution of egress batch frames in
	// ops per datagram — the amortization factor the batched transport
	// buys per syscall. Unlike the other stages, samples are op counts,
	// not nanoseconds.
	StageEgressBatch
	// StageClientFlushWait is the time a transport client's egress frame
	// stays open: from the op that made it non-empty to the frame's write,
	// one sample per frame. It is the client's batching delay, the first
	// hop of an acquire's latency.
	StageClientFlushWait
	// NumStages is the number of defined stages.
	NumStages
)

// Stage metric names carry their unit suffix: latency stages end in "_ns",
// size stages in "_ops" (Snapshot.String and the Prometheus exporter render
// them accordingly).
var stageNames = [NumStages]string{"switch_pass_ns", "server_queue_wait_ns", "acquire_e2e_ns", "egress_batch_ops", "client_flush_wait_ns"}

// String returns the stage's metric-name fragment.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage(?)"
}

// Counter identifies a monotonic event counter.
type Counter uint8

// Counters. Each is recorded exactly once, at the component where the event
// semantically happens: the switch owns request/disposition counts (the ToR
// sees every request once), grants are counted where they are emitted, and
// lease expiries where they are reclaimed.
const (
	// CtrAcquires counts acquire requests entering the stack.
	CtrAcquires Counter = iota
	// CtrReleases counts release requests.
	CtrReleases
	// CtrGrants counts grants and one-RTT fetches issued.
	CtrGrants
	// CtrResubmits counts extra switch pipeline passes (resubmit
	// primitive), the knob the paper's Algorithm 2 spends for multi-step
	// register operations.
	CtrResubmits
	// CtrOverflows counts requests forwarded to a server because the
	// switch queue was full (§4.3).
	CtrOverflows
	// CtrRejects counts requests bounced to the client (tenant quota or
	// queue overflow with a bounded server buffer).
	CtrRejects
	// CtrLeaseExpiries counts holders force-released by the lease sweep.
	CtrLeaseExpiries
	// CtrFailovers counts failure-handling transitions.
	CtrFailovers
	// CtrFramesIn counts NetLock datagrams received (batch frames and bare
	// headers alike); CtrOpsIn / CtrFramesIn is the realized ingress batch
	// factor.
	CtrFramesIn
	// CtrFramesOut counts NetLock datagrams sent.
	CtrFramesOut
	// CtrOpsIn counts operations decoded from ingress datagrams.
	CtrOpsIn
	// CtrChainNacks counts gap nacks a chain member sent: an op arrived
	// ahead of a gap and was dropped.
	CtrChainNacks
	// CtrChainReplayed counts chain op records re-sent to a successor (on
	// a gap nack, from the heal sweep, or by a controller replay); in
	// steady state every record crosses each link once and this stays 0.
	CtrChainReplayed
	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	"acquires", "releases", "grants", "resubmits",
	"overflows", "rejects", "lease_expiries", "failovers",
	"frames_in", "frames_out", "ops_in", "chain_nacks", "chain_replayed",
}

// String returns the counter's metric-name fragment.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// Now returns the current wall-clock instant for latency measurement.
// Components time spans with Now()/Since() so the cost exists only on the
// enabled path.
func Now() time.Time { return time.Now() }

// Since returns the nanoseconds elapsed since t.
func Since(t time.Time) int64 { return int64(time.Since(t)) }
