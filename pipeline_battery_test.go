package embsp_test

// The pipeline determinism battery: every Table 1 workload runs on the
// serial schedule (zero drive latency — fully synchronous file store,
// no prefetch) and the pipelined one (per-drive I/O workers, prefetch,
// write-behind — which the drive latency picks, so the pipelined legs
// emulate a little), on sequential and parallel machines, under clean
// and faulty schedules — and every word of the Result and every
// model-visible EM statistic must be bitwise identical. The physical
// schedule is allowed to change wall-clock time and the Overlap
// counters, nothing else.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"embsp"
	"embsp/internal/core"
	"embsp/internal/workload"
)

// batteryLatency is the pipelined legs' emulated drive latency: at zero
// latency the file store starts no workers, and both legs would be the
// one synchronous store.
const batteryLatency = 20 * time.Microsecond

// mustAgree asserts the two results agree under the identity contract
// (core.Diff): every VP context, model cost and EM statistic.
func mustAgree(t *testing.T, label string, serial, piped *embsp.Result) {
	t.Helper()
	if d := core.Diff(serial, piped); d != "" {
		t.Fatalf("%s: the results differ: %s", label, d)
	}
}

// TestPipelineDeterminismBattery is the tentpole's acceptance battery:
// for all 13 Table 1 workloads, on P = 1 and P = 3 machines, in-memory
// vs. file-backed, with and without fault injection and parity
// redundancy, the pipelined physical schedule produces the identical
// Result to the fully synchronous one.
func TestPipelineDeterminismBattery(t *testing.T) {
	for _, name := range workload.Table1Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := table1Program(t, name)
			for _, procs := range []int{1, 3} {
				cfg := embsp.MachineConfig{
					P: procs, M: 4 * prog.MaxContextWords(), D: 4, B: 16, G: 100,
					Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
				}
				// In-memory run: the model baseline the stores must match.
				array, err := embsp.Run(prog, cfg, embsp.Options{Seed: 0xBA77E7})
				if err != nil {
					t.Fatalf("P=%d array: %v", procs, err)
				}
				serial, err := embsp.Run(prog, cfg, embsp.Options{
					Seed: 0xBA77E7, StateDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("P=%d serial file: %v", procs, err)
				}
				piped, err := embsp.Run(prog, cfg, embsp.Options{
					Seed: 0xBA77E7, StateDir: t.TempDir(), DriveLatency: batteryLatency,
				})
				if err != nil {
					t.Fatalf("P=%d pipelined file: %v", procs, err)
				}
				mustAgree(t, fmt.Sprintf("P=%d clean", procs), serial, piped)
				// Across backends the contract covers outputs and model
				// costs; the track layout legitimately differs between an
				// in-place Array run and a checkpointed File run (which
				// keeps the generation it can roll back to), so the full
				// EM comparison is file-to-file only.
				for i := range array.VPs {
					if !reflect.DeepEqual(vpImage(array.VPs[i]), vpImage(serial.VPs[i])) {
						t.Fatalf("P=%d: VP %d context differs between array and file backends", procs, i)
					}
				}
				if !reflect.DeepEqual(array.Costs, serial.Costs) {
					t.Fatalf("P=%d: model costs differ between array and file backends", procs)
				}

				// Faulty schedule: transient read/write/corrupt faults plus a
				// permanent drive death under parity redundancy. The fault
				// sequence is a pure function of the op order, which the
				// pipeline must not perturb. The death is early enough to
				// fire in all 26 runs (at op 40 the shortest workloads'
				// last processor finished first once contexts were packed).
				plan := &embsp.FaultPlan{
					Seed:          0xFA17,
					ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01,
					FailDrive: 2, FailDriveOp: 10, FailProc: procs - 1,
				}
				fOpts := embsp.Options{
					Seed: 0xBA77E7, FaultPlan: plan, Redundancy: embsp.RedundancyParity,
					StateDir: t.TempDir(),
				}
				fSerial, err := embsp.Run(prog, cfg, fOpts)
				if err != nil {
					t.Fatalf("P=%d faulty serial: %v", procs, err)
				}
				fOpts.StateDir, fOpts.DriveLatency = t.TempDir(), batteryLatency
				fPiped, err := embsp.Run(prog, cfg, fOpts)
				if err != nil {
					t.Fatalf("P=%d faulty pipelined: %v", procs, err)
				}
				mustAgree(t, fmt.Sprintf("P=%d faults+parity", procs), fSerial, fPiped)
			}
		})
	}
}
