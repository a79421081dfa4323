// Command bench is NetLock's benchmark: seven closed-loop workloads over
// the embedded Manager and the UDP rack, four end-to-end metrics measured
// with tracing off, and a per-layer ledger measured from outside in a
// separate traced run. See README.md for every definition.
//
// The driver runs one workload per process:
//
//	bench --workload udp_shared --seed 1 --seconds 12 --trace 0
//
// and reads the last line of standard output, one JSON object. Without
// --workload (or with --workload all) one command runs every workload with
// tracing off, then traced, and prints every metric by name with its unit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// maxProcs caps the CPUs a run counts on, so it means the same on a bigger
// box.
const maxProcs = 4

// benchProcs is the run's GOMAXPROCS, and with it the shard, generator and
// per-proc worker counts: min(nproc, maxProcs) less one. The CPU left out
// goes to the kernel's loopback work and to whatever else the host runs; a
// run that keeps every vCPU busy measures the scheduler, not the program
// (README.md, Steadiness).
func benchProcs() int { return max(1, min(runtime.NumCPU(), maxProcs)-1) }

// options are the command's flags, resolved.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	report   string
	quick    bool
	procs    int
}

// machine is the note every report carries: numbers are only comparable
// between runs that agree on it.
type machine struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Network    string  `json:"network"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func machineNote(o *options) machine {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return machine{
		NumCPU: runtime.NumCPU(), GoMaxProcs: o.procs, GoVersion: runtime.Version(), Commit: commit,
		Network: "UDP over the host's loopback interface, not a real link", Seed: o.seed, Seconds: o.seconds,
	}
}

// driverResult is the one line the driver reads.
type driverResult struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seeds every lock-choice RNG")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed windows of one run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for span files and the report")
	flag.StringVar(&o.report, "report", "", "all workloads: also write the JSON report here")
	flag.BoolVar(&o.quick, "quick", false, "all workloads: test-sized windows and replays")
	flag.Parse()

	o.procs = benchProcs()
	runtime.GOMAXPROCS(o.procs)
	note := machineNote(&o)
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d; %s\n",
		note.NumCPU, note.GoMaxProcs, note.GoVersion, note.Commit, note.Seed, note.Network)

	if o.workload == "all" {
		rep, err := runAll(&o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}

	s := findSpec(o.workload)
	if s == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, violations, err := runDriver(s, &o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bench: oracle:", v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// scale is how much work a run does: full size for the driver and the
// committed baseline, test size for bench_test.go.
type scale struct {
	tm          timing  // tracing off
	refShare    float64 // traced run: share of seconds spent on the untraced reference
	tracedShare float64 // traced run: share of seconds spent traced
	replayCalls int
	probeRTTs   int
	probeRaw    time.Duration
}

func (o *options) scale() scale {
	if o.quick {
		tm := timing{warm: 25 * time.Millisecond, measure: 160 * time.Millisecond, nWin: 4, failover: 150 * time.Millisecond, setupReps: 1}
		return scale{tm: tm, refShare: 1, tracedShare: 1, replayCalls: 10000, probeRTTs: 50, probeRaw: 50 * time.Millisecond}
	}
	return scale{tm: fullTiming(o.seconds), refShare: 0.2, tracedShare: 0.4, replayCalls: 1 << 20, probeRTTs: 1000, probeRaw: time.Second}
}

// measureEndToEnd is the run with tracing off: the set-up phase repeated
// for its median, then one instance through warm-up and the timed windows.
func measureEndToEnd(s *spec, o *options, sc scale) (*segment, metricSet, error) {
	var setups []float64
	for i := 1; i < sc.tm.setupReps; i++ {
		in, d, _, failed, err := setupOnce(s, o.seed, o.procs, false, newHolders(s.denseIDs(o.procs)))
		if err != nil {
			return nil, nil, err
		}
		in.close()
		if failed != 0 {
			return nil, nil, fmt.Errorf("%s: %d ops failed during set-up", s.name, failed)
		}
		setups = append(setups, d.Seconds())
	}
	sg, err := runSegment(s, o.seed, o.procs, sc.tm, false)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, sg.setupS)
	fmt.Fprintf(os.Stderr, "bench: %s: %d latency samples in the leanest window (ten beyond the 99th percentile needs 1000); host stole %.1f%% of CPU time during the windows\n",
		s.name, sg.samples, 100*div(float64(sg.after.stealTicks-sg.before.stealTicks), float64(sg.after.allTicks-sg.before.allTicks)))
	return sg, endToEndMetrics(sg, setups), nil
}

// measureLayers is the traced run: a short reference with tracing off, the
// traced instance (spans and obs registries on), the isolated-layer replays
// and the raw-frame probes. refMops is udp_shared's untraced throughput when
// the caller already has it (0: measure it here if the workload needs it).
func measureLayers(s *spec, o *options, sc scale, refMops float64) (*tracedRun, error) {
	tr := &tracedRun{refMops: refMops}
	part := func(share float64) timing {
		tm := sc.tm
		if !o.quick {
			tm = fullTiming(o.seconds * share)
			tm.warm = time.Second
		}
		return tm
	}
	var err error
	if tr.ref, err = runSegment(s, o.seed, o.procs, part(sc.refShare), false); err != nil {
		return nil, err
	}
	if tr.traced, err = runSegment(s, o.seed, o.procs, part(sc.tracedShare), true); err != nil {
		return nil, err
	}
	tr.costs = replayLayers(s, o.seed, o.procs, sc.replayCalls)
	if s.udp {
		stream := &opStream{ops: generateOps(s.source(o.seed, 0, o.procs), 1<<16)}
		if tr.probe, err = runProbes(s.chain, stream, sc.probeRTTs, sc.probeRaw); err != nil {
			return nil, err
		}
		if s.chain > 1 {
			if tr.single, err = runProbes(1, stream, sc.probeRTTs, sc.probeRaw); err != nil {
				return nil, err
			}
			if tr.refMops == 0 {
				base, err := runSegment(findSpec("udp_shared"), o.seed, o.procs, part(sc.refShare), false)
				if err != nil {
					return nil, err
				}
				tr.refMops = base.medianMops()
			}
		}
	}
	return tr, writeSpans(o.out, s.name, tr.traced.recs)
}

// runDriver is one driver invocation: one workload, one trace mode.
func runDriver(s *spec, o *options) (*driverResult, []string, error) {
	sc := o.scale()
	if o.trace == 0 {
		sg, m, err := measureEndToEnd(s, o, sc)
		if err != nil {
			return nil, nil, err
		}
		return &driverResult{Correct: len(sg.violations) == 0, Attempted: sg.attempted, Failed: sg.failed,
			Metrics: m.render(endToEnd)}, sg.violations, nil
	}
	tr, err := measureLayers(s, o, sc, 0)
	if err != nil {
		return nil, nil, err
	}
	m, _ := layerMetrics(s, tr)
	violations := append(append([]string(nil), tr.ref.violations...), tr.traced.violations...)
	return &driverResult{Correct: len(violations) == 0,
		Attempted: tr.ref.attempted + tr.traced.attempted, Failed: tr.ref.failed + tr.traced.failed,
		Metrics: m.render(perLayer)}, violations, nil
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(dir, workload string, recs []*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		for i := range r.spans {
			sp := &r.spans[i]
			fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"gen":%d,"lock":%d,"op":%d}`+"\n",
				sp.name, sp.id, sp.parent, sp.start, sp.end, r.gen, sp.lock, sp.op)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- all workloads in one command ---

// workloadReport is one workload's section of the full report.
type workloadReport struct {
	Name       string             `json:"name"`
	Correct    bool               `json:"correct"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	FailFrac   float64            `json:"fail_frac"`
	Violations []string           `json:"violations,omitempty"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	WindowIQR  map[string]float64 `json:"window_iqr_frac"`
	PerLayer   map[string]metric  `json:"per_layer"`
	Ledger     []ledgerRow        `json:"ledger"`
}

type report struct {
	Machine   machine          `json:"machine"`
	Correct   bool             `json:"correct"`
	Workloads []workloadReport `json:"workloads"`
}

func runAll(o *options) (*report, error) {
	sc := o.scale()
	rep := &report{Machine: machineNote(o), Correct: true}
	mops := map[string]float64{}
	full := map[string]*segment{}
	for i := range workloadSpecs {
		s := &workloadSpecs[i]
		fmt.Fprintf(os.Stderr, "bench: %s, tracing off\n", s.name)
		sg, m, err := measureEndToEnd(s, o, sc)
		if err != nil {
			return nil, err
		}
		mops[s.name], full[s.name] = m["acquire_mops"], sg
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name: s.name, Correct: len(sg.violations) == 0, Attempted: sg.attempted, Failed: sg.failed,
			FailFrac: div(float64(sg.failed), float64(sg.attempted)), Violations: sg.violations,
			EndToEnd: m.render(endToEnd),
			WindowIQR: map[string]float64{
				"acquire_mops": iqrFrac(sg.mops), "acquire_p50_us": iqrFrac(sg.p50us), "acquire_p90_us": iqrFrac(sg.p90us)},
		})
	}
	for i := range workloadSpecs {
		s := &workloadSpecs[i]
		wr := &rep.Workloads[i]
		fmt.Fprintf(os.Stderr, "bench: %s, traced\n", s.name)
		tr, err := measureLayers(s, o, sc, mops["udp_shared"])
		if err != nil {
			return nil, err
		}
		m, ledger := layerMetrics(s, tr)
		if s.chain > 1 {
			// With every workload measured at full length, the ratio comes
			// from the end-to-end runs rather than the short references.
			m["transport.chain.tput_ratio"] = div(mops[s.name], mops["udp_shared"])
		}
		// Likewise the 99th percentile and the sample count: the full-length
		// windows, not the short reference's.
		m["bench.acquire_p99_us"] = median(full[s.name].p99us)
		m["bench.samples"] = float64(full[s.name].samples)
		wr.PerLayer, wr.Ledger = m.render(perLayer), ledger
		wr.Violations = append(append(wr.Violations, tr.ref.violations...), tr.traced.violations...)
		wr.Correct = len(wr.Violations) == 0
		rep.Correct = rep.Correct && wr.Correct
	}
	if o.report != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.report, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (rep *report) print(w *os.File) {
	m := rep.Machine
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\nnetwork: %s\n\n",
		m.NumCPU, m.GoMaxProcs, m.GoVersion, m.Commit, m.Seed, m.Seconds, m.Network)
	fmt.Fprintln(w, "END TO END (tracing off; median over the timed windows, inter-quartile spread over windows beside it)")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%-14s", wr.Name)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %s=%.6g %s", d.name, wr.EndToEnd[d.name].Value, d.unit)
			if iqr, ok := wr.WindowIQR[d.name]; ok {
				fmt.Fprintf(w, " (±%.1f%%)", 100*iqr)
			}
		}
		fmt.Fprintf(w, "  fail_frac=%.6g (%d of %d)  oracle=%s\n", wr.FailFrac, wr.Failed, wr.Attempted, passFail(wr.Correct))
		for _, v := range wr.Violations {
			fmt.Fprintf(w, "    VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintln(w, "\nPER LAYER (traced run; 0 = the layer is not on that workload's path)")
	names := make([]string, len(rep.Workloads))
	for i, wr := range rep.Workloads {
		names[i] = wr.Name
	}
	fmt.Fprintf(w, "%-40s %-7s %s\n", "metric", "unit", strings.Join(names, "  "))
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-40s %-7s", d.name, d.unit)
		for _, wr := range rep.Workloads {
			fmt.Fprintf(w, " %*.5g ", len(wr.Name), wr.PerLayer[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nLEDGER (isolated cost per call x calls per op, against proc.cpu_us_per_op)")
	for _, wr := range rep.Workloads {
		cpu := wr.PerLayer["proc.cpu_us_per_op"].Value * 1e3
		fmt.Fprintf(w, "%s: %.0f ns CPU per op\n", wr.Name, cpu)
		for _, r := range wr.Ledger { // sorted by layerMetrics, largest first
			fmt.Fprintf(w, "    %-20s %8.1f ns x %5.2f = %8.1f ns  (%4.1f%%)\n", r.Layer, r.NsPerCall, r.CallsPerOp, r.NsPerOp, 100*div(r.NsPerOp, cpu))
		}
		fmt.Fprintf(w, "    %-20s %37.1f%%\n", "unattributed", 100*wr.PerLayer["proc.ledger_unattributed_frac"].Value)
	}
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
