package obs

import (
	"fmt"
	"strings"

	"netlock/internal/stats"
)

// Gauge is one point-in-time value exported alongside the counters, filled
// in by the snapshot producer from control-plane reads (slots in use,
// resident locks, free table entries — the data-plane occupancy figures the
// paper's memory manager steers by).
type Gauge struct {
	// Name is the metric name without the "netlock_" prefix, e.g.
	// "switch_slots_in_use".
	Name string
	// Help is the one-line metric description.
	Help string
	// Value is the gauge reading.
	Value float64
}

// Snapshot is a merged, point-in-time view of a Registry plus any gauges
// the producer attached. The zero value from NewSnapshot is valid and
// empty; Snapshot values are plain data and safe to retain.
type Snapshot struct {
	// Counters holds the monotonic counters, indexed by Counter.
	Counters [NumCounters]uint64
	// TenantGrants holds per-tenant grant counts, indexed by tenant ID.
	TenantGrants [NumTenants]uint64
	// Stages holds the merged per-stage latency histograms, indexed by
	// Stage.
	Stages [NumStages]stats.Histogram
	// Gauges are producer-attached point-in-time values.
	Gauges []Gauge
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot { return &Snapshot{} }

// Counter returns the value of counter c.
func (sn *Snapshot) Counter(c Counter) uint64 { return sn.Counters[c] }

// Stage returns the merged histogram for stage st.
func (sn *Snapshot) Stage(st Stage) *stats.Histogram { return &sn.Stages[st] }

// AddGauge appends a gauge reading.
func (sn *Snapshot) AddGauge(name, help string, value float64) {
	sn.Gauges = append(sn.Gauges, Gauge{Name: name, Help: help, Value: value})
}

// Merge folds other into sn (counters and histograms add; gauges append).
func (sn *Snapshot) Merge(other *Snapshot) {
	for c := range sn.Counters {
		sn.Counters[c] += other.Counters[c]
	}
	for t := range sn.TenantGrants {
		sn.TenantGrants[t] += other.TenantGrants[t]
	}
	for st := range sn.Stages {
		sn.Stages[st].Merge(&other.Stages[st])
	}
	sn.Gauges = append(sn.Gauges, other.Gauges...)
}

// String renders a compact one-line summary: counters plus the p50/p99 of
// each non-empty stage, in microseconds.
func (sn *Snapshot) String() string {
	var b strings.Builder
	for c := Counter(0); c < NumCounters; c++ {
		if v := sn.Counters[c]; v != 0 {
			fmt.Fprintf(&b, "%s=%d ", c, v)
		}
	}
	for st := Stage(0); st < NumStages; st++ {
		h := &sn.Stages[st]
		if h.Count() == 0 {
			continue
		}
		if strings.HasSuffix(st.String(), "_ns") {
			fmt.Fprintf(&b, "%s{p50=%.1fus p99=%.1fus n=%d} ",
				st, float64(h.Percentile(50))/1e3, float64(h.Percentile(99))/1e3, h.Count())
		} else {
			fmt.Fprintf(&b, "%s{p50=%d p99=%d n=%d} ",
				st, h.Percentile(50), h.Percentile(99), h.Count())
		}
	}
	return strings.TrimSpace(b.String())
}
