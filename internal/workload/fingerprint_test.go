package workload

import (
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"embsp"
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

// TestFingerprintIdentityList pins the fields Fingerprint hashes: the
// list is the pinned one, every field of a Result but the side field has
// an entry and every entry names a field, Overlap moves nothing, and a
// field at zero adds no word — so a Result of zeros and no VPs hashes to
// the empty digest, and deleting a field that reads zero moves no
// fingerprint.
func TestFingerprintIdentityList(t *testing.T) {
	if got := identityFields[:]; !slices.Equal(got, pinnedIdentity) {
		t.Fatalf("the identity list is\n%q\nwant\n%q", got, pinnedIdentity)
	}
	var res embsp.Result
	fill(reflect.ValueOf(&res.Costs).Elem(), 1)
	fill(reflect.ValueOf(&res.EM).Elem(), 1)
	seen := make([]int, len(identityFields))
	identity(&res, func(tag int, at []int, v uint64) { seen[tag]++ })
	for tag, path := range identityFields {
		if (path != "") != (seen[tag] > 0) {
			t.Errorf("tag %d (%q) is hashed %d times", tag, path, seen[tag])
		}
	}

	base := Fingerprint(&res)
	res.EM.Overlap = embsp.OverlapStats{}
	if Fingerprint(&res) != base {
		t.Error("the side field moves the fingerprint")
	}
	res.EM.RouteOps = 7
	if Fingerprint(&res) == base {
		t.Error("an identity field does not move the fingerprint")
	}

	if got, want := Fingerprint(&embsp.Result{}), fnv.New64a().Sum64(); got != want {
		t.Errorf("a Result of zeros hashes to %#x, want the empty digest %#x", got, want)
	}
}
