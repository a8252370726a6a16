package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"embsp/internal/core"
	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/journal"
	"embsp/internal/redundancy"
	"embsp/internal/workload"
)

// TestManifestFormatsPinned: the journal records are formats other
// binaries resume from, so they cannot move silently. The checksums of
// the first two committed records (the setup barrier's and superstep
// 0's) of one tiny fixed run, per manifest kind, were computed at the
// commit before the superstep driver was written once (PR 16); a change
// that moves one must bump modelRules or the kind tag and say why.
func TestManifestFormatsPinned(t *testing.T) {
	prog := clusterProgram()
	opts := core.Options{Seed: 7}
	check := func(kind, dir string, want [2]uint64) {
		t.Helper()
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i, w := range want {
			if got := disk.Checksum(j.Records()[i]); got != w {
				t.Errorf("%s record %d: checksum %#x, want %#x", kind, i, got, w)
			}
		}
	}
	for p, want := range map[int][2]uint64{
		1: {0x5d56bd4f7a452835, 0x989cae2f696698e8},
		2: {0x49ea2a0232e7d2d0, 0xdbe3885586add73f},
	} {
		o := opts
		o.StateDir = t.TempDir()
		if _, err := core.Run(prog, parMachine(p, 2, 8, 256), o); err != nil {
			t.Fatal(err)
		}
		check("RUN", o.StateDir, want)
	}
	// Layered chains, whose records carry the optional fault and parity
	// sections after the store state; computed at the commit before the
	// layers became links of one chain (PR 17).
	for _, row := range []struct {
		name string
		p    int
		with func(*core.Options)
		want [2]uint64
	}{
		{"file+parity+faults", 1, func(o *core.Options) {
			o.Redundancy = redundancy.Parity
			o.FaultPlan = &fault.Plan{Seed: 11, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}
		}, [2]uint64{0x376f77a8c456e68d, 0xbc4f603828c84c0f}},
		{"file+mirror+drive death", 1, func(o *core.Options) {
			o.Redundancy = redundancy.Mirror
			o.FaultPlan = &fault.Plan{Seed: 11, FailDriveOp: 12, FailDrive: 1}
		}, [2]uint64{0x9740fad1edef9622, 0xfc6446c35ad3eeb7}},
		{"mapped+tier+parity", 2, func(o *core.Options) {
			o.MappedStore = true
			o.Tiers = []core.TierSpec{{}}
			o.Redundancy = redundancy.Parity
		}, [2]uint64{0x26dce0e7add5263e, 0xe4028ee6681a554a}},
	} {
		o := opts
		o.StateDir = t.TempDir()
		row.with(&o)
		if _, err := core.Run(prog, parMachine(row.p, 2, 8, 256), o); err != nil {
			t.Fatal(err)
		}
		check("RUN "+row.name, o.StateDir, row.want)
	}
	root := t.TempDir()
	rig := openRig(t, prog, parMachine(2, 2, 8, 256), opts, root, false)
	rig.run(t)
	rig.close()
	check("NODE", filepath.Join(root, "node-0"), [2]uint64{0x7182c17933df40e5, 0xf4a04cbaee4638bc})
	check("NODE", filepath.Join(root, "node-1"), [2]uint64{0x22cdf21b8f79cdfd, 0x7a45ae73628977d3})
	check("CORD", filepath.Join(root, "coord"), [2]uint64{0x1afb7357e81ef52c, 0xef37d4d763f8abee})
}

// TestGoldenRowsOverTheWire runs the P > 1 instances of the root
// package's golden table (golden_test.go: same programs, machine and
// seed) a second time through the NodeEngine transport, with every
// BlockBatch encoded and decoded between phases, and requires the
// table's numbers. Nodes are always durable and never tiered, so the
// table's fingerprints — which also hash how each store classifies a
// drive's accesses as sequential or random — are replaced by the
// fingerprint of the in-process run on the same file store.
func TestGoldenRowsOverTheWire(t *testing.T) {
	sort := workload.Spec{Alg: "sort", N: 8192, V: 16, Seed: 7}
	listrank := workload.Spec{Alg: "listrank", N: 2048, V: 8, Seed: 7}
	for _, row := range []struct {
		spec                                   workload.Spec
		p                                      int
		runOps, setupOps, routeOps, memHighWds int64
	}{
		{sort, 2, 2404, 200, 568, 29568},
		{listrank, 2, 31753, 570, 3934, 93760},
		{sort, 3, 2619, 200, 782, 29824},
		{listrank, 3, 33277, 571, 5404, 70080},
	} {
		inst, err := row.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Machine(inst.Program, row.p, 4, 64, 6, 1000)
		rig := openRig(t, inst.Program, cfg, core.Options{Seed: 7}, t.TempDir(), false)
		rig.wire = true
		res := rig.run(t)
		rig.close()
		label := fmt.Sprintf("%s p=%d", row.spec.Alg, row.p)
		want := [4]int64{row.runOps, row.setupOps, row.routeOps, row.memHighWds}
		if got := [4]int64{res.EM.Run.Ops, res.EM.Setup.Ops, res.EM.RouteOps, res.EM.MemHigh}; got != want {
			t.Errorf("%s: run, setup and route ops and MemHigh are %v, want %v", label, got, want)
		}
		oracle, err := core.Run(inst.Program, cfg, core.Options{Seed: 7, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := workload.Fingerprint(res), workload.Fingerprint(oracle); got != want {
			t.Errorf("%s: fingerprint %#x over the wire, %#x in process", label, got, want)
		}
	}
}
