package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"embsp"
	"embsp/internal/words"
)

// Fingerprint digests a Result into one comparable value: the marshaled
// context of every final VP (the bitwise-identity contract's ground
// truth), then the BSP model costs and the EM statistics as words of
// their identity fields (identityFields) — each field that is not zero
// as its tag, its place in the lists it lies in, and its value — and not
// EMStats.Overlap, the one side field: wall-clock observability, outside
// that contract. Two runs of the same Spec on the same machine
// configuration — clean, fault-injected, killed-and-resumed, pipelined
// or serial — must produce equal fingerprints; the job daemon stores it
// per job so a crash-resumed daemon's results can be checked against
// clean one-shot runs. A field's tag is its place in a fixed list, and
// a zero is left out, so deleting a field that reads zero moves no
// fingerprint, and neither does renaming one.
func Fingerprint(res *embsp.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(w uint64) {
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	enc := words.NewEncoder(nil)
	for _, vp := range res.VPs {
		enc.Reset()
		vp.Save(enc)
		for _, w := range enc.Words() {
			word(w)
		}
		// Separate VPs so context boundaries shift the digest.
		fmt.Fprintf(h, "|")
	}
	identity(res, func(tag int, at []int, v uint64) {
		if v == 0 {
			return
		}
		word(uint64(tag))
		for _, i := range at {
			word(uint64(i))
		}
		word(v)
	})
	return h.Sum64()
}

// identityFields is the fixed list of the fields Fingerprint hashes, by
// path from the Result: a field's tag is its index. The list only grows
// — a field that goes leaves its entry "" — so no tag names two fields.
// A field that is neither here nor the side field stops the fingerprint
// (identity panics), which the tests reach at once.
var identityFields = [...]string{
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

// sideField is the one field of a Result outside the identity contract.
const sideField = "EM.Overlap"

var identityTags = func() map[string]int {
	tags := make(map[string]int, len(identityFields))
	for tag, path := range identityFields {
		if path != "" {
			tags[path] = tag
		}
	}
	return tags
}()

// identity hands put every identity field of res's costs and EM
// statistics, in declaration order: its tag, its index in each list it
// lies in, and its value as a word (a float's bits).
func identity(res *embsp.Result, put func(tag int, at []int, v uint64)) {
	var walk func(path string, v reflect.Value, at []int)
	walk = func(path string, v reflect.Value, at []int) {
		if path == sideField {
			return
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i), at)
			}
			return
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(path, v.Index(i), append(at, i))
			}
			return
		}
		tag, ok := identityTags[path]
		if !ok {
			panic(fmt.Sprintf("workload: %s is neither an identity field nor the side field", path))
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			put(tag, at, uint64(v.Int()))
		case reflect.Float64:
			put(tag, at, math.Float64bits(v.Float()))
		default:
			panic(fmt.Sprintf("workload: identity field %s is a %s", path, v.Kind()))
		}
	}
	walk("Costs", reflect.ValueOf(res.Costs), nil)
	walk("EM", reflect.ValueOf(res.EM), nil)
}
