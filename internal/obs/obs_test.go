package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"netlock/internal/stats"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	s := r.Stripe(3)
	if s != nil {
		t.Fatalf("nil registry handed out non-nil stripe")
	}
	if s.Enabled() || s.Tracing() {
		t.Fatalf("nil stripe reports enabled/tracing")
	}
	// All writes must be no-ops, not panics.
	s.Inc(CtrAcquires)
	s.Add(CtrResubmits, 7)
	s.TenantGrant(4)
	s.Observe(StageSwitchPass, 123)
	s.Trace(TraceEvent{Event: EvGrant})
	sn := r.Snapshot()
	if sn.Counter(CtrAcquires) != 0 || sn.Stage(StageSwitchPass).Count() != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", sn)
	}
	if r.NumStripes() != 0 {
		t.Fatalf("nil registry has stripes")
	}
}

func TestStripeRoutingAndSnapshotMerge(t *testing.T) {
	r := New(Config{Stripes: 4})
	if r.NumStripes() != 4 {
		t.Fatalf("NumStripes = %d, want 4", r.NumStripes())
	}
	if r.Stripe(1) != r.Stripe(5) {
		t.Fatalf("stripe index not reduced mod stripe count")
	}
	for i := 0; i < 4; i++ {
		s := r.Stripe(i)
		s.Inc(CtrAcquires)
		s.Add(CtrGrants, uint64(i))
		s.TenantGrant(uint8(i))
		s.Observe(StageAcquireE2E, int64(1000*(i+1)))
	}
	sn := r.Snapshot()
	if got := sn.Counter(CtrAcquires); got != 4 {
		t.Fatalf("acquires = %d, want 4", got)
	}
	if got := sn.Counter(CtrGrants); got != 0+1+2+3 {
		t.Fatalf("grants = %d, want 6", got)
	}
	for i := 0; i < 4; i++ {
		if sn.TenantGrants[i] != 1 {
			t.Fatalf("tenant %d grants = %d, want 1", i, sn.TenantGrants[i])
		}
	}
	h := sn.Stage(StageAcquireE2E)
	if h.Count() != 4 {
		t.Fatalf("e2e samples = %d, want 4", h.Count())
	}
	if h.Max() < 4000-4000/16 {
		t.Fatalf("e2e max = %d, want ~4000", h.Max())
	}
}

// TestAtomicHistMatchesHistogram checks the atomic mirror stays within the
// HDR histogram's bounded relative error after conversion.
func TestAtomicHistMatchesHistogram(t *testing.T) {
	var ah AtomicHist
	var ref stats.Histogram
	vals := []int64{0, 1, 63, 64, 65, 1000, 12345, 1 << 20, 1<<40 + 12345, -5}
	for _, v := range vals {
		ah.Record(v)
		ref.Record(v)
	}
	var got stats.Histogram
	ah.AddTo(&got)
	if got.Count() != ref.Count() {
		t.Fatalf("count = %d, want %d", got.Count(), ref.Count())
	}
	for _, q := range []float64{10, 50, 90, 99} {
		g, w := got.Percentile(q), ref.Percentile(q)
		if w == 0 {
			if g != 0 {
				t.Fatalf("p%v = %d, want 0", q, g)
			}
			continue
		}
		if rel := math.Abs(float64(g-w)) / float64(w); rel > 0.04 {
			t.Fatalf("p%v = %d, ref %d (rel err %.3f)", q, g, w, rel)
		}
	}
}

func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := New(Config{Stripes: 3})
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.Stripe(g)
			for i := 0; i < perG; i++ {
				s.Inc(CtrReleases)
				s.Observe(StageSwitchPass, int64(i))
				s.TenantGrant(uint8(g))
			}
		}(g)
	}
	// Snapshots race with writers by design; just exercise that path.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	sn := r.Snapshot()
	if got := sn.Counter(CtrReleases); got != 6*perG {
		t.Fatalf("releases = %d, want %d", got, 6*perG)
	}
	if got := sn.Stage(StageSwitchPass).Count(); got != 6*perG {
		t.Fatalf("switch-pass samples = %d, want %d", got, 6*perG)
	}
}

type recordingTracer struct {
	mu  sync.Mutex
	evs []TraceEvent
}

func (rt *recordingTracer) Trace(ev TraceEvent) {
	rt.mu.Lock()
	rt.evs = append(rt.evs, ev)
	rt.mu.Unlock()
}

func TestTracerReceivesEvents(t *testing.T) {
	rt := &recordingTracer{}
	r := New(Config{Stripes: 2, Tracer: rt})
	s := r.Stripe(0)
	if !s.Tracing() {
		t.Fatalf("Tracing() = false with tracer attached")
	}
	s.Trace(TraceEvent{Event: EvOverflow, LockID: 9, TxnID: 77, Tenant: 2, Arg: 1})
	r.Stripe(1).Trace(TraceEvent{Event: EvFailover, Arg: FailoverSwitchDown})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.evs) != 2 {
		t.Fatalf("got %d events, want 2", len(rt.evs))
	}
	if rt.evs[0].Event != EvOverflow || rt.evs[0].LockID != 9 || rt.evs[0].TxnID != 77 {
		t.Fatalf("event 0 = %+v", rt.evs[0])
	}
	if rt.evs[1].Arg != FailoverSwitchDown {
		t.Fatalf("event 1 arg = %d", rt.evs[1].Arg)
	}
}

func TestSnapshotString(t *testing.T) {
	r := New(Config{})
	s := r.Stripe(0)
	s.Add(CtrAcquires, 15)
	s.Observe(StageAcquireE2E, 2500)
	cur := r.Snapshot()
	str := cur.String()
	if !strings.Contains(str, "acquires=15") || !strings.Contains(str, "acquire_e2e_ns{") {
		t.Fatalf("String() = %q", str)
	}
}

func TestWritePromEmitsAllFamilies(t *testing.T) {
	r := New(Config{Stripes: 2})
	s := r.Stripe(0)
	s.Inc(CtrAcquires)
	s.Inc(CtrGrants)
	s.TenantGrant(3)
	for i := 0; i < 100; i++ {
		s.Observe(StageSwitchPass, int64(100+i*10))
	}
	sn := r.Snapshot()
	sn.AddGauge("switch_slots_in_use", "Queue slots currently allocated.", 42)

	var b strings.Builder
	if err := sn.WriteProm(&b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := b.String()
	// Every counter family must appear even at zero.
	for c := Counter(0); c < NumCounters; c++ {
		if !strings.Contains(out, "netlock_"+c.String()+"_total") {
			t.Fatalf("missing counter family %s in:\n%s", c, out)
		}
	}
	// Every stage family must appear even when empty.
	for st := Stage(0); st < NumStages; st++ {
		name := "netlock_" + st.String()
		for _, suffix := range []string{"_bucket{le=\"+Inf\"}", "_sum", "_count"} {
			if !strings.Contains(out, name+suffix) {
				t.Fatalf("missing %s%s in:\n%s", name, suffix, out)
			}
		}
	}
	for _, want := range []string{
		"netlock_acquires_total 1",
		"netlock_tenant_grants_total{tenant=\"3\"} 1",
		"netlock_switch_pass_ns_count 100",
		"netlock_switch_slots_in_use 42",
		"# TYPE netlock_switch_pass_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Bucket cumulative counts must be monotonic and end at the total.
	if !strings.Contains(out, "netlock_switch_pass_ns_bucket{le=\"+Inf\"} 100") {
		t.Fatalf("+Inf bucket != total:\n%s", out)
	}
}

func TestEnabledPathDoesNotAllocate(t *testing.T) {
	r := New(Config{Stripes: 2})
	s := r.Stripe(1)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Inc(CtrAcquires)
		s.TenantGrant(7)
		s.Observe(StageAcquireE2E, 1234)
		s.Trace(TraceEvent{Event: EvGrant, LockID: 1}) // no tracer: must not alloc
	})
	if allocs != 0 {
		t.Fatalf("enabled stripe writes allocate: %v allocs/op", allocs)
	}
	var nil_ *Stripe
	allocs = testing.AllocsPerRun(1000, func() {
		nil_.Inc(CtrAcquires)
		nil_.Observe(StageSwitchPass, 5)
	})
	if allocs != 0 {
		t.Fatalf("disabled stripe writes allocate: %v allocs/op", allocs)
	}
}
