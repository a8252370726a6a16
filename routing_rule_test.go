package embsp_test

// The routing rule's acceptance property over the 13 Table 1 workloads:
// whether a superstep's blocks are routed by Algorithm 2, left where
// their writer put them, or either as the directory decides, the final
// contexts are bitwise those of RunReference, and the decided run never
// takes more parallel I/O operations than the one that routes every
// superstep — which is what keeps Theorem 1's bound standing.

import (
	"fmt"
	"reflect"
	"testing"

	"embsp"
	"embsp/internal/core"
)

func TestRouteRulePropertyTable1(t *testing.T) {
	const seed = 17
	modes := []core.RouteMode{core.RouteDecided, core.RouteAlways, core.RouteNever}
	for name, prog := range table1Programs(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := embsp.RunReference(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			// Three drives, where routing can never pay, and eight, where
			// a skewed enough directory would be routed.
			for _, d := range []int{3, 8} {
				for _, p := range []int{1, 3} {
					cfg := embsp.MachineConfig{
						P: p, M: max(4*prog.MaxContextWords(), d*32), D: d, B: 32, G: 100,
						Cost: embsp.CostParams{GUnit: 1, GPkt: 64, Pkt: 64, L: 10},
					}
					var ops [3]int64
					for _, mode := range modes {
						label := fmt.Sprintf("D=%d P=%d mode %d", d, p, mode)
						res, err := embsp.Run(prog, cfg, core.ForceRouting(embsp.Options{Seed: seed}, mode))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i, vp := range res.VPs {
							if !reflect.DeepEqual(vpImage(vp), vpImage(ref.VPs[i])) {
								t.Fatalf("%s: VP %d context differs from reference", label, i)
							}
						}
						if res.Costs.Supersteps != ref.Costs.Supersteps {
							t.Errorf("%s: λ = %d, reference %d", label, res.Costs.Supersteps, ref.Costs.Supersteps)
						}
						switch routed := res.EM.RouteOps > 0; {
						case mode == core.RouteNever && routed, mode == core.RouteAlways && !routed && res.Costs.TotalWords() > 0:
							t.Errorf("%s: %d routing ops", label, res.EM.RouteOps)
						}
						ops[mode] = res.EM.Run.Ops
					}
					if ops[core.RouteDecided] > ops[core.RouteAlways] {
						t.Errorf("D=%d P=%d: the rule took %d operations, routing every superstep %d", d, p, ops[core.RouteDecided], ops[core.RouteAlways])
					}
				}
			}
		})
	}
}
