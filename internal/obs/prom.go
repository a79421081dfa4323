package obs

import (
	"fmt"
	"io"

	"netlock/internal/stats"
)

// promBucketPoints caps the number of le= buckets rendered per histogram so
// scrapes stay small; the CDF downsampling keeps the tail point exact.
const promBucketPoints = 32

var stageHelp = [NumStages]string{
	"Wall-clock time of one switch data-plane pass (resubmits included), nanoseconds.",
	"Time a request waited in a lock-server queue before its grant, nanoseconds.",
	"End-to-end acquire latency from request submission to grant delivery, nanoseconds.",
	"Operations per egress batch frame (ops per datagram).",
	"Time a client egress frame stayed open, from its first op to its write, nanoseconds.",
}

var counterHelp = [NumCounters]string{
	"Acquire requests entering the stack.",
	"Release requests entering the stack.",
	"Grants and one-RTT fetch notifications issued.",
	"Extra switch pipeline passes consumed by resubmits.",
	"Requests forwarded to a lock server because the switch queue was full.",
	"Requests rejected back to the client (quota or bounded-buffer overflow).",
	"Lock holders force-released by the lease sweep.",
	"Failure-handling transitions (switch down/up, server failover).",
	"NetLock datagrams received (batch frames and bare headers).",
	"NetLock datagrams sent.",
	"Operations decoded from ingress datagrams.",
	"Chain gap nacks sent (an op arrived ahead of a gap and was dropped).",
	"Chain op records re-sent to a successor (gap nack, heal sweep or controller replay).",
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Every metric family is always emitted, even at zero, so scrapers (and the
// smoke test) can rely on the names being present from the first scrape.
func (sn *Snapshot) WriteProm(w io.Writer) error {
	for c := Counter(0); c < NumCounters; c++ {
		name := "netlock_" + c.String() + "_total"
		if err := promHeader(w, name, counterHelp[c], "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, sn.Counters[c]); err != nil {
			return err
		}
	}

	if err := promHeader(w, "netlock_tenant_grants_total",
		"Grants issued per tenant.", "counter"); err != nil {
		return err
	}
	any := false
	for t := 0; t < NumTenants; t++ {
		if sn.TenantGrants[t] == 0 {
			continue
		}
		any = true
		if _, err := fmt.Fprintf(w, "netlock_tenant_grants_total{tenant=\"%d\"} %d\n",
			t, sn.TenantGrants[t]); err != nil {
			return err
		}
	}
	if !any {
		if _, err := fmt.Fprintf(w, "netlock_tenant_grants_total{tenant=\"0\"} 0\n"); err != nil {
			return err
		}
	}

	for st := Stage(0); st < NumStages; st++ {
		// Stage names carry their own unit suffix ("_ns" or "_ops").
		if err := promHistogram(w, "netlock_"+st.String(), stageHelp[st], &sn.Stages[st]); err != nil {
			return err
		}
	}

	for _, g := range sn.Gauges {
		name := "netlock_" + g.Name
		if err := promHeader(w, name, g.Help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, g.Value); err != nil {
			return err
		}
	}
	return nil
}

func promHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// promHistogram renders a stats.Histogram as a Prometheus histogram family.
// Cumulative bucket counts are recovered from the CDF (fraction x count),
// downsampled to promBucketPoints upper bounds.
func promHistogram(w io.Writer, name, help string, h *stats.Histogram) error {
	if err := promHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	total := h.Count()
	for _, pt := range h.CDF(promBucketPoints) {
		cum := int64(pt.Fraction*float64(total) + 0.5)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, pt.Value, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, total)
	return err
}
