package cgmgraph

import "embsp/internal/bsp"

// Splices is the Ranker's splice rule, for the external tests.
var Splices = splices

// RankerThreshold is the count of active non-tail nodes below which the
// Ranker gathers.
var RankerThreshold = rankerThreshold

// None marks a missing predecessor or successor.
const None = none

// RankerSizes reports a ListRank VP's owned nodes and the subscriptions
// its Ranker holds.
func RankerSizes(vp bsp.VP) (own, subs int) {
	r := &vp.(*listRankVP).ranker
	return len(r.Succ), len(r.subs) / 2
}

// RankerContracting reports whether a ListRank VP's Ranker is in its
// splice rounds.
func RankerContracting(vp bsp.VP) bool {
	return vp.(*listRankVP).ranker.phase == rkContract
}

// TourPositions returns the tour position of every arc of an EulerTour's
// VPs (arc 2j is edge j oriented as given, 2j+1 the reversal).
func TourPositions(vps []bsp.VP) []int {
	var out []int
	for _, vp := range vps {
		for _, q := range vp.(*eulerVP).pos {
			out = append(out, int(q))
		}
	}
	return out
}
