package core

import (
	"context"

	"embsp/internal/bsp"
)

// RunOver is Run with the engine's in-memory Transport wrapped by wrap,
// so a test can watch — or fail — the driver's calls.
func RunOver(wrap func(Transport) Transport, p bsp.Program, cfg MachineConfig, opts Options) (*Result, error) {
	e, d := newEngine(context.Background(), p, cfg, opts)
	d.t = wrap(e)
	return e.run(d)
}

// MessageBlocks counts, on the engine RunOver hands to wrap, the message
// blocks the open superstep's writing phases have left in the
// processors' directories, and the streams they form.
func MessageBlocks(t Transport) (blocks, streams int) {
	for _, ps := range t.(*engine).procs {
		for _, perDrive := range ps.dir.q {
			for _, refs := range perDrive {
				for _, ref := range refs {
					blocks++
					if ref.meta.chunk == 0 {
						streams++
					}
				}
			}
		}
	}
	return blocks, streams
}

// ContextOps is the number of parallel operations it takes to write —
// or to read back — the contexts the open superstep has saved so far:
// over processors and batches, ⌈used/D⌉ for the blocks the batch's
// packed records fill in the area being written.
func ContextOps(t Transport) (ops int) {
	e := t.(*engine)
	for _, ps := range e.procs {
		for _, used := range ps.ctxUsed[ps.ctxNext()] {
			ops += (used + e.cfg.D - 1) / e.cfg.D
		}
	}
	return ops
}
