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
