package main

import (
	"fmt"
	"slices"
	"time"
)

// timing is the shape of one measured run. The driver's --seconds sets
// measure; everything else is a fixed share of it, so a run is the same on
// every commit.
type timing struct {
	warm     time.Duration // fixed warm-up before the first timed window
	measure  time.Duration // total length of the timed windows
	nWin     int
	failover time.Duration // udp_chain3: load kept running after the head kill
	// setupReps is how many times the set-up phase is repeated; setup_s is
	// the median.
	setupReps int
}

func fullTiming(seconds float64) timing {
	m := time.Duration(seconds * float64(time.Second))
	return timing{warm: m / 5, measure: m, nWin: 10, failover: m / 5, setupReps: 7}
}

// segment is the outcome of one instance driven through warm-up, the timed
// windows, drain and the oracle.
type segment struct {
	setupS    float64 // bring-up + prime ops of this instance
	rackUpMs  float64
	winDur    []float64 // seconds
	mops      []float64 // per window
	p50us     []float64
	p90us     []float64
	p99us     []float64 // reported as bench.acquire_p99_us, not bounded
	samples   int       // latency samples in the leanest window
	attempted uint64
	failed    uint64
	granted   uint64
	ops       uint64 // pairs completed inside the timed windows
	before    sysSnap
	after     sysSnap
	recs      []*recorder
	in        *instance // closed; kept for its obs registries
	place     placement
	logLenMax int
	// head-kill phase
	failCallMs   float64
	failOutageMs float64
	violations   []string
}

func (sg *segment) medianMops() float64 { return median(sg.mops) }

// setupOnce builds an instance and completes the workload's fixed number of
// prime ops on it — rack bring-up, lock install, placement solve, client
// creation, and proof that the rack serves — and returns how long that took.
func setupOnce(s *spec, seed int64, procs int, traced bool, hold *holders) (*instance, time.Duration, uint64, uint64, error) {
	t0 := time.Now()
	in, err := s.up(seed, procs, traced)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	ctl := &control{budget: s.primeOps / in.workers}
	recs := runGenerators(&env{in: in, ctl: ctl, hold: hold, seed: seed ^ 0x5eed})
	var granted, failed uint64
	for _, r := range recs {
		granted += r.granted
		failed += r.failed
	}
	return in, time.Since(t0), granted, failed, nil
}

// runSegment measures one fresh instance of workload s.
func runSegment(s *spec, seed int64, procs int, tm timing, traced bool) (*segment, error) {
	sg := &segment{}
	hold := newHolders(s.denseIDs(procs))
	in, setup, primed, primeFailed, err := setupOnce(s, seed, procs, traced, hold)
	if err != nil {
		return nil, err
	}
	defer in.close()
	sg.in, sg.place = in, in.place
	sg.setupS = setup.Seconds()
	sg.rackUpMs = float64(in.rackUp) / 1e6

	ctl := &control{nWin: tm.nWin, traced: traced}
	ctl.win.Store(-1)
	e := &env{in: in, ctl: ctl, hold: hold, seed: seed}
	genDone := make(chan []*recorder, 1)
	go func() { genDone <- runGenerators(e) }()

	stopSampler := make(chan struct{})
	samplerDone := make(chan int, 1)
	go func() { samplerDone <- sampleChainLog(in, traced, stopSampler) }()

	time.Sleep(tm.warm)
	winLen := tm.measure / time.Duration(tm.nWin)
	edges := make([]int64, tm.nWin+1)
	sg.before = in.snapshot()
	start := time.Now()
	for w := 0; w < tm.nWin; w++ {
		edges[w] = now()
		ctl.win.Store(int32(w))
		time.Sleep(time.Until(start.Add(time.Duration(w+1) * winLen)))
	}
	edges[tm.nWin] = now()
	ctl.win.Store(int32(tm.nWin))
	sg.after = in.snapshot()
	close(stopSampler)
	sg.logLenMax = <-samplerDone

	if s.failHead {
		// Outside the timed windows: kill the chain head under load and
		// keep the loop running, for the control-plane metrics and the
		// no-lost-grant oracle.
		ctl.lastDone.Store(now())
		ctl.failPhase.Store(true)
		t0 := time.Now()
		if err := in.tp.Controller().FailHead(); err != nil {
			sg.violations = append(sg.violations, "FailHead: "+err.Error())
		}
		sg.failCallMs = float64(time.Since(t0)) / 1e6
		time.Sleep(tm.failover)
		ctl.failPhase.Store(false)
		sg.failOutageMs = float64(ctl.maxGap.Load()) / 1e6
	}

	ctl.stop.Store(true)
	select {
	case sg.recs = <-genDone:
	case <-time.After(opDeadline + 3*time.Second):
		// Every op carries a 2 s deadline; generators that have not drained
		// by now are stuck on an op that will never complete.
		return nil, fmt.Errorf("%s: generators did not drain: an op neither completed nor failed", s.name)
	}

	for w := 0; w < tm.nWin; w++ {
		d := float64(edges[w+1]-edges[w]) / 1e9
		var ops uint64
		for _, r := range sg.recs {
			ops += r.ops[w]
		}
		sg.ops += ops
		sg.winDur = append(sg.winDur, d)
		sg.mops = append(sg.mops, float64(ops)/d/1e6)
		lat := mergeSorted(sg.recs, w, func(r *recorder) [][]uint32 { return r.lat })
		sg.p50us = append(sg.p50us, percentileNs(lat, 0.50)/1e3)
		sg.p90us = append(sg.p90us, percentileNs(lat, 0.90)/1e3)
		sg.p99us = append(sg.p99us, percentileNs(lat, 0.99)/1e3)
		if w == 0 || len(lat) < sg.samples {
			sg.samples = len(lat)
		}
	}

	// Oracle. Every submitted op completed exactly once: it was granted or
	// it failed, and the generators drained. Then the system itself must
	// hold no trace of the run, and must have granted exactly what the
	// generators saw granted.
	sg.granted, sg.failed = primed, primeFailed
	for _, r := range sg.recs {
		sg.attempted += r.attempted
		sg.failed += r.failed
		sg.granted += r.granted
		sg.violations = append(sg.violations, r.violations...)
	}
	sg.attempted += primed + primeFailed
	if sg.attempted != sg.granted+sg.failed {
		sg.violations = append(sg.violations, fmt.Sprintf("%d ops attempted but %d granted + %d failed", sg.attempted, sg.granted, sg.failed))
	}
	if n := hold.held(); n != 0 {
		sg.violations = append(sg.violations, fmt.Sprintf("%d locks still flagged held after drain", n))
	}
	sg.violations = append(sg.violations, in.drained(3*time.Second)...)
	if end := in.snapshot(); end.grants != sg.granted {
		sg.violations = append(sg.violations, fmt.Sprintf("rack issued %d grants but the generators saw %d", end.grants, sg.granted))
	}
	return sg, nil
}

// sampleChainLog polls the chain members' replay-log length at 10 Hz during
// the traced run's windows and returns the maximum seen.
func sampleChainLog(in *instance, traced bool, stop <-chan struct{}) int {
	if !traced || in.tp == nil {
		<-stop
		return 0
	}
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	max := 0
	for {
		select {
		case <-stop:
			return max
		case <-t.C:
			for _, sw := range in.tp.Switches() {
				if n := sw.ChainStatus().LogLen; n > max {
					max = n
				}
			}
		}
	}
}

// txnWindows returns the per-window transaction rate and the merged,
// sorted transaction latencies of the whole timed span.
func (sg *segment) txnWindows() (perS []float64, lat []uint32) {
	for w := range sg.winDur {
		var n uint64
		for _, r := range sg.recs {
			n += r.txns[w]
			lat = append(lat, r.txnLat[w]...)
		}
		perS = append(perS, float64(n)/sg.winDur[w])
	}
	slices.Sort(lat)
	return perS, lat
}
