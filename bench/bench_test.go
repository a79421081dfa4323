package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

// benchmarkFile mirrors the part of BENCHMARK.json the test compares.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestQuick runs all seven workloads, untraced and traced, with the layer
// replays and probes at test size, and holds what the benchmark emits equal
// to what BENCHMARK.json declares — names, units and directions, both ways.
func TestQuick(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}

	o := &options{workload: "all", seed: 1, seconds: 1, quick: true, out: t.TempDir(), procs: benchProcs()}
	runtime.GOMAXPROCS(o.procs)
	rep, err := runAll(o)
	if err != nil {
		t.Fatal(err)
	}

	var declared, emitted []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for _, wr := range rep.Workloads {
		emitted = append(emitted, wr.Name)
		for _, v := range wr.Violations {
			t.Errorf("%s: oracle: %s", wr.Name, v)
		}
		if wr.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed", wr.Name, wr.Failed, wr.Attempted)
		}
		checkMetrics(t, wr.Name+" end_to_end", wr.EndToEnd, len(decl.EndToEnd), func(i int) (string, string) {
			return decl.EndToEnd[i].Name, decl.EndToEnd[i].Unit
		})
		checkMetrics(t, wr.Name+" per_layer", wr.PerLayer, len(decl.PerLayer), func(i int) (string, string) {
			return decl.PerLayer[i].Name, decl.PerLayer[i].Unit
		})
		for _, d := range endToEnd {
			if wr.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wr.Name, d.name, wr.EndToEnd[d.name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(o.out, "trace_"+wr.Name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", wr.Name, err)
		}
	}
	if !slices.Equal(declared, emitted) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the benchmark runs %v", declared, emitted)
	}
	for _, n := range emitted {
		if !nameRE.MatchString(n) {
			t.Errorf("workload name %q does not match %v", n, nameRE)
		}
	}
	for i, d := range endToEnd {
		if i < len(decl.EndToEnd) && (decl.EndToEnd[i].Better != d.better) {
			t.Errorf("%s: BENCHMARK.json says better=%s, the benchmark says %s", d.name, decl.EndToEnd[i].Better, d.better)
		}
	}
	for i, d := range perLayer {
		if i < len(decl.PerLayer) && (decl.PerLayer[i].Better != d.better) {
			t.Errorf("%s: BENCHMARK.json says better=%s, the benchmark says %s", d.name, decl.PerLayer[i].Better, d.better)
		}
	}
}

// checkMetrics holds one emitted metric map equal to the declared list:
// same names in both directions, same units, well-formed names.
func checkMetrics(t *testing.T, what string, got map[string]metric, n int, decl func(int) (name, unit string)) {
	t.Helper()
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		name, unit := decl(i)
		seen[name] = true
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %v", what, name, nameRE)
		}
	}
}
