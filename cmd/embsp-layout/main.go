// Command embsp-layout visualizes the paper's Figure 2: the
// reorganization performed by Algorithm 2 (SimulateRouting) from the
// standard linked format produced by the randomized writing phase to
// the standard consecutive format the next fetch phase streams with
// fully parallel I/O. It also prints the configured machine — the
// paper's Figure 1 model.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"embsp/internal/core"
	"embsp/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("embsp-layout", flag.ContinueOnError)
	fs.SetOutput(stderr)
	v := fs.Int("v", 8, "virtual processors")
	d := fs.Int("d", 4, "disk drives")
	b := fs.Int("b", 8, "block (track) size in words")
	per := fs.Int("blocks", 2, "message blocks per virtual processor")
	k := fs.Int("k", 2, "group size (VPs simulated together)")
	seed := fs.Uint64("seed", 0xF162, "random seed")
	report := fs.Bool("report", false, "print a per-phase wall-clock breakdown of the demo to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tr *obs.Tracer
	if *report {
		tr = obs.New()
	}
	fmt.Fprintf(stdout, "EM-BSP machine (Figure 1): 1 processor, D=%d drives, B=%d words/track;\n", *d, *b)
	fmt.Fprintf(stdout, "one parallel I/O operation moves up to %d words (one track per drive).\n\n", *d**b)
	start := time.Now()
	if err := core.DemoRouting(stdout, tr, *v, *d, *b, *per, *k, *seed); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *report {
		obs.WriteReport(stderr, tr.Phases(), time.Since(start))
	}
	return 0
}
