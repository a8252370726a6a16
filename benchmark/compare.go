package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// cellMedians reduces a report's sets to one value per (workload, end-to-end
// metric): the median over the sets.
func cellMedians(sets []map[string]workloadReport) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, w := range workloads {
		for _, d := range endToEnd {
			var xs []float64
			for _, set := range sets {
				if m, ok := set[w.name].EndToEnd[d.Name]; ok {
					xs = append(xs, m.Value)
				}
			}
			if len(xs) == 0 {
				continue
			}
			if out[w.name] == nil {
				out[w.name] = make(map[string]float64)
			}
			out[w.name][d.Name] = median(xs)
		}
	}
	return out
}

// compareSets prints, per (end-to-end metric, workload), both medians, how
// much worse b is than a as a share of a, and the metric's bound, flagging
// every cell beyond it. It reports whether every cell is within its bound.
func compareSets(a, b []map[string]workloadReport) bool {
	ma, mb := cellMedians(a), cellMedians(b)
	ok := true
	fmt.Printf("%-14s %-28s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, oka := ma[w.name][d.Name]
			vb, okb := mb[w.name][d.Name]
			if !oka || !okb {
				continue
			}
			worse := (vb - va) / va
			if d.Better == higher {
				worse = -worse
			}
			flag := ""
			if worse > d.Bound {
				flag = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w.name, d.Name, va, vb, 100*worse, 100*d.Bound, flag)
		}
	}
	return ok
}

func compareFiles(pathA, pathB string) int {
	var reps [2]report
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	fmt.Printf("a = %s (seed %d, %d sets), b = %s (seed %d, %d sets)\n",
		pathA, reps[0].Seed, len(reps[0].Sets), pathB, reps[1].Seed, len(reps[1].Sets))
	if !compareSets(reps[0].Sets, reps[1].Sets) {
		return 1
	}
	return 0
}
