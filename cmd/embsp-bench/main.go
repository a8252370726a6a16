// Command embsp-bench runs the reproduction experiments: every row of
// the paper's Table 1, the Figure 2 reorganization, and the lemma and
// scaling claims. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	embsp-bench -list
//	embsp-bench -run table1/sorting [-scale medium]
//	embsp-bench -all [-scale small|medium|large]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"embsp"
	"embsp/internal/bench"
	"embsp/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment ids to run")
	all := flag.Bool("all", false, "run every experiment")
	scaleFlag := flag.String("scale", "medium", "workload scale: small, medium or large")
	redundancyFlag := flag.String("redundancy", "", "drive redundancy for every run: none, mirror or parity")
	scrub := flag.Bool("scrub", false, "background scrub between supersteps (requires -redundancy mirror or parity)")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar and /metrics on this address while experiments run (medium/large sweeps take minutes; profile them live)")
	flag.Parse()

	if *debugAddr != "" {
		_, actual, err := obs.Serve(*debugAddr, obs.NewRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug: serving pprof, expvar and /metrics on http://%s\n", actual)
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *redundancyFlag != "" || *scrub {
		mode, err := embsp.ParseRedundancy(*redundancyFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *scrub && mode == embsp.RedundancyNone {
			fmt.Fprintln(os.Stderr, "-scrub requires -redundancy mirror or parity")
			os.Exit(2)
		}
		bench.SetRedundancy(mode, *scrub)
	}

	switch {
	case *list:
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
			fmt.Printf("%-18s   reproduces: %s\n", "", e.Reproduces)
		}
	case *all:
		for _, e := range bench.Experiments() {
			runOne(e, scale)
		}
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runOne(e, scale)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e bench.Experiment, scale bench.Scale) {
	fmt.Printf("=== %s — %s\n", e.ID, e.Reproduces)
	start := time.Now()
	if err := e.Run(os.Stdout, scale); err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
		os.Exit(1)
	}
	fmt.Printf("--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
}
