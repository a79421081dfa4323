// Command benchrunner regenerates the paper's evaluation figures
// (§6, Figures 8–15) on the virtual-time testbed and prints the same rows
// and series the paper plots.
//
//	benchrunner            # full-scale run of every figure
//	benchrunner -quick     # CI-scale run
//	benchrunner -fig 10    # a single figure
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"netlock/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "reduced windows and sweep densities")
	fig := flag.String("fig", "all", "figure to run: 8a,8b,8cd,9,10,11,12a,12b,13a,13b,14a,14b,15,calib or all")
	seed := flag.Int64("seed", 1, "testbed seed")
	flag.Parse()

	o := harness.Options{Quick: *quick, Out: os.Stdout, Seed: *seed}
	figs := map[string]func(){
		"calib": func() { harness.CalibrationRun(o) },
		"8a":    func() { harness.Fig8aSharedLocks(o) },
		"8b":    func() { harness.Fig8bExclusiveNoContention(o) },
		"8cd":   func() { harness.Fig8cdExclusiveContention(o) },
		"9":     func() { harness.Fig9SwitchVsServer(o) },
		"10":    func() { harness.Fig10TPCC(o) },
		"11":    func() { harness.Fig11TPCC(o) },
		"12a":   func() { harness.Fig12aServiceDiff(o) },
		"12b":   func() { harness.Fig12bIsolation(o) },
		"13a":   func() { harness.Fig13aMemAlloc(o) },
		"13b":   func() { harness.Fig13bMemAllocCDF(o) },
		"14a":   func() { harness.Fig14aThinkTime(o) },
		"14b":   func() { harness.Fig14bAllocSweep(o) },
		"15":    func() { harness.Fig15Failure(o) },
	}
	order := []string{"calib", "8a", "8b", "8cd", "9", "10", "11", "12a", "12b", "13a", "13b", "14a", "14b", "15"}

	run := func(name string) {
		f, ok := figs[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (have: %s)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		t0 := time.Now()
		f()
		fmt.Printf("  [%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	if *fig == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	for _, name := range strings.Split(*fig, ",") {
		run(strings.TrimSpace(name))
	}
}
