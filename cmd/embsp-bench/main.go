// Command embsp-bench runs the reproduction experiments: every row of
// the paper's Table 1, the Figure 2 reorganization, and the lemma and
// scaling claims. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	embsp-bench -list
//	embsp-bench -run table1/sorting [-scale medium]
//	embsp-bench -run table1/          (every experiment under a prefix)
//	embsp-bench -all [-scale small|medium|large]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"embsp"
	"embsp/internal/bench"
	"embsp/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment ids to run; an id ending in / selects every experiment under it")
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
			es := matching(strings.TrimSpace(id))
			if len(es) == 0 {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			for _, e := range es {
				runOne(e, scale)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// matching returns the experiment with the given id or, for an id
// ending in "/", every experiment whose id starts with it, in registry
// order.
func matching(id string) []bench.Experiment {
	if !strings.HasSuffix(id, "/") {
		if e, ok := bench.Find(id); ok {
			return []bench.Experiment{e}
		}
		return nil
	}
	var out []bench.Experiment
	for _, e := range bench.Experiments() {
		if strings.HasPrefix(e.ID, id) {
			out = append(out, e)
		}
	}
	return out
}

func runOne(e bench.Experiment, scale bench.Scale) {
	if err := report(os.Stdout, e, scale); err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
		os.Exit(1)
	}
}

// report runs experiment e and writes its report to w: a header, what
// the experiment prints, and the wall-clock time it took — the one line
// of the report that is not a function of the code alone.
func report(w io.Writer, e bench.Experiment, scale bench.Scale) error {
	fmt.Fprintf(w, "=== %s — %s\n", e.ID, e.Reproduces)
	start := time.Now()
	if err := e.Run(w, scale); err != nil {
		return err
	}
	fmt.Fprintf(w, "--- %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}
