package bench

import (
	"fmt"
	"io"

	"embsp/internal/bsp"
	"embsp/internal/core"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
)

func init() {
	register(Experiment{
		ID:         "redundancy/overhead",
		Title:      "Redundancy overhead: none vs. mirror vs. parity, clean and degraded",
		Reproduces: "DESIGN.md §10 capacity/I-O overhead claims (parity ≈ 1/(D-1) vs. mirror 1×)",
		Run:        runRedundancyOverhead,
	})
}

// runRedundancyOverhead measures the same sort workload under each
// redundancy mode on the same machine, then once more under parity
// with a mid-run permanent drive death, and prints the extra blocks
// each protection level costs. Every run is verified against the
// in-memory reference run by its final VP states.
func runRedundancyOverhead(w io.Writer, s Scale) error {
	const seed = 0x0E0D
	const d = 4
	prog, err := sortProgram(pick(s, 1<<12, 1<<15, 1<<18), benchVPs, seed)
	if err != nil {
		return err
	}
	ref, err := bsp.Run(prog, bsp.RunOptions{Seed: seed, PktSize: bFor(s)})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	type variant struct {
		label string
		opts  core.Options
	}
	variants := []variant{
		{"none", core.Options{Seed: seed}},
		{"mirror", core.Options{Seed: seed, Redundancy: redundancy.Mirror}},
		{"parity", core.Options{Seed: seed, Redundancy: redundancy.Parity}},
		{"parity+scrub", core.Options{Seed: seed, Redundancy: redundancy.Parity, Scrub: true}},
		{"parity, drive death", core.Options{
			Seed:       seed,
			Redundancy: redundancy.Parity,
			FaultPlan:  &fault.Plan{Seed: 7, FailDrive: 1, FailDriveOp: 200},
		}},
	}

	cfg := machineFor(prog, 1, d, bFor(s), 8)
	tw := newTable(w)
	fmt.Fprintf(tw, "mode\tI/O ops\tblocks\tparity blocks\toverhead\tdegraded\tscrubbed\n")
	var base int64
	for _, v := range variants {
		res, err := core.Run(prog, cfg, v.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		if err := sameStates(ref.VPs, res.VPs); err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		em := res.EM
		blocks := em.Run.Blocks()
		if v.label == "none" {
			base = blocks
		}
		over := "-"
		if base > 0 && blocks > base {
			over = fmt.Sprintf("%.0f%%", 100*float64(blocks-base)/float64(base))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%d\t%d\n",
			v.label, em.Run.Ops, blocks, em.ParityBlocks, over,
			em.DegradedOps, em.ScrubbedBlocks)
	}
	tw.Flush()
	fmt.Fprintf(w, "mirror doubles every write (a stripe of one member: its copy is its parity block);\n"+
		"parity on D=%d drives adds ≈ 1/(D-1) = %.0f%% capacity\n", d, 100.0/float64(d-1))
	fmt.Fprintf(w, "Every context is saved to tracks allocated for it and every stripe leaves whole,\n"+
		"in place (the clean rows) as under the checkpoint discipline (the drive-death row,\n"+
		"which has a fault plan): parity costs its blocks' writes and no read-back. The death\n"+
		"row's extra is the replayed superstep and the degraded reads of the generation the\n"+
		"dead drive held; nothing is rebuilt (DESIGN.md §10).\n\n")
	return nil
}
