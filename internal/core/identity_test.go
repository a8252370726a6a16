package core

import (
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"embsp/internal/bsp"
	"embsp/internal/bsp/bsptest"
	"embsp/internal/disk"
)

// pinnedIdentity is the identity list as it stands. Entries may be
// appended, and a field that goes leaves its entry "", but no entry
// changes: a tag names one field forever.
var pinnedIdentity = []string{
	"",
	"Costs.Supersteps",
	"Costs.PerStep.MaxSendWords",
	"Costs.PerStep.MaxRecvWords",
	"Costs.PerStep.MaxSendPkts",
	"Costs.PerStep.MaxRecvPkts",
	"Costs.PerStep.TotalWords",
	"Costs.PerStep.Messages",
	"Costs.PerStep.MaxCharge",
	"Costs.PerStep.TotalCharge",
	"EM.K",
	"EM.Groups",
	"EM.CtxBlocksPerVP",
	"EM.Setup.Ops",
	"EM.Setup.ReadOps",
	"EM.Setup.WriteOps",
	"EM.Setup.BlocksRead",
	"EM.Setup.BlocksWritten",
	"EM.Setup.PerDrive.BlocksRead",
	"EM.Setup.PerDrive.BlocksWritten",
	"EM.Setup.PerDrive.SeqAccesses",
	"EM.Setup.PerDrive.RandAccesses",
	"EM.Run.Ops",
	"EM.Run.ReadOps",
	"EM.Run.WriteOps",
	"EM.Run.BlocksRead",
	"EM.Run.BlocksWritten",
	"EM.Run.PerDrive.BlocksRead",
	"EM.Run.PerDrive.BlocksWritten",
	"EM.Run.PerDrive.SeqAccesses",
	"EM.Run.PerDrive.RandAccesses",
	"EM.Finish.Ops",
	"EM.Finish.ReadOps",
	"EM.Finish.WriteOps",
	"EM.Finish.BlocksRead",
	"EM.Finish.BlocksWritten",
	"EM.Finish.PerDrive.BlocksRead",
	"EM.Finish.PerDrive.BlocksWritten",
	"EM.Finish.PerDrive.SeqAccesses",
	"EM.Finish.PerDrive.RandAccesses",
	"EM.PerProc.Ops",
	"EM.PerProc.ReadOps",
	"EM.PerProc.WriteOps",
	"EM.PerProc.BlocksRead",
	"EM.PerProc.BlocksWritten",
	"EM.PerProc.PerDrive.BlocksRead",
	"EM.PerProc.PerDrive.BlocksWritten",
	"EM.PerProc.PerDrive.SeqAccesses",
	"EM.PerProc.PerDrive.RandAccesses",
	"EM.IOTime",
	"EM.RouteOps",
	"EM.RaggedSlots",
	"EM.MaxBucketSkew",
	"EM.MemHigh",
	"EM.LiveBlocksPerDrive",
	"EM.CommWords",
	"EM.CommPkts",
	"EM.CommTime",
	"EM.FaultsInjected",
	"EM.ChecksumFailures",
	"EM.DriveFailures",
	"EM.Retries",
	"EM.RetriedBlocks",
	"EM.Replays",
	"EM.RecoveryOps",
	"EM.ParityOps",
	"EM.ParityBlocks",
	"EM.StripedBlocks",
	"EM.DegradedOps",
	"EM.ReconstructedBlocks",
	"EM.RepairedBlocks",
}

// fill sets every number under v to n and gives every list two
// elements.
func fill(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), n)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Float64:
		v.SetFloat(float64(n))
	}
}

// TestFingerprintIdentityList pins the identity contract: the list is
// the pinned one, every field of a Result but the side field has an
// entry and every entry names a field, and a field at zero adds no word
// — so a Result of zeros and no VPs hashes to the empty digest, and
// deleting a field that reads zero moves no fingerprint. Diff names the
// first VP context or identity field that differs, with its indices and
// both values, exactly when the fingerprint moves: Overlap, the side
// field, moves neither.
func TestFingerprintIdentityList(t *testing.T) {
	if got := identityFields[:]; !slices.Equal(got, pinnedIdentity) {
		t.Fatalf("the identity list is\n%q\nwant\n%q", got, pinnedIdentity)
	}
	ring := &bsptest.RingProgram{V: 3}
	filled := func() *Result {
		res := &Result{VPs: []bsp.VP{ring.NewVP(0), ring.NewVP(1), ring.NewVP(2)}}
		fill(reflect.ValueOf(&res.Costs).Elem(), 1)
		fill(reflect.ValueOf(&res.EM).Elem(), 1)
		return res
	}
	res := filled()
	seen := make([]int, len(identityFields))
	identity(res, func(tag int, _ []int, _ reflect.Value) { seen[tag]++ })
	for tag, path := range identityFields {
		if (path != "") != (seen[tag] > 0) {
			t.Errorf("tag %d (%q) is hashed %d times", tag, path, seen[tag])
		}
	}

	for _, c := range []struct {
		move func(*Result)
		want string
	}{
		{func(*Result) {}, ""},
		{func(r *Result) { r.EM.Overlap = disk.OverlapStats{} }, ""},
		{func(r *Result) { r.VPs[1] = ring.NewVP(2) }, "VP 1"},
		{func(r *Result) { r.VPs = r.VPs[:2] }, "VP 2"},
		{func(r *Result) { r.Costs.PerStep[1].Messages = 5 }, "Costs.PerStep[1].Messages: 1 vs 5"},
		{func(r *Result) { r.EM.PerProc[1].PerDrive[0].BlocksWritten = 13 }, "EM.PerProc[1].PerDrive[0].BlocksWritten: 1 vs 13"},
		{func(r *Result) { r.EM.RouteOps = 7 }, "EM.RouteOps: 1 vs 7"},
		{func(r *Result) { r.EM.IOTime = 2.5 }, "EM.IOTime: 1 vs 2.5"},
		{func(r *Result) { r.EM.PerProc = r.EM.PerProc[:1] }, "EM.PerProc[1].Ops vs EM.IOTime"},
	} {
		other := filled()
		c.move(other)
		if got := Diff(res, other); got != c.want {
			t.Errorf("Diff names %q, want %q", got, c.want)
		}
		if moved := Fingerprint(other) != Fingerprint(res); moved != (c.want != "") {
			t.Errorf("%q: the fingerprint moved: %v", c.want, moved)
		}
	}

	if got, want := Fingerprint(&Result{}), fnv.New64a().Sum64(); got != want {
		t.Errorf("a Result of zeros hashes to %#x, want the empty digest %#x", got, want)
	}
}
