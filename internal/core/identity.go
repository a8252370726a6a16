package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"embsp/internal/bsp"
	"embsp/internal/words"
)

// The identity contract: a run's identity is the saved context of every
// final VP and the identity fields of its costs and EM statistics — every
// number under Result.Costs and Result.EM but the side field. Two runs of
// one program on one machine configuration — in memory or durable,
// clean, fault-injected, killed and resumed, pipelined or serial, in
// process or over the cluster — agree in it bit for bit. Fingerprint
// hashes it and Diff compares it; nothing else restates it.

// identityFields is the fixed list of the identity fields, by path from
// the Result: a field's tag is its index. The list only grows — a field
// that goes leaves its entry "" — so no tag names two fields. A field
// that is neither here nor the side field stops the walk (identity
// panics), which the tests reach at once.
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

// sideField is the one field of a Result outside the identity contract:
// EMStats.Overlap counts the file store's wall-clock scheduling, which
// no two runs need share.
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
// lies in, and its value.
func identity(res *Result, put func(tag int, at []int, v reflect.Value)) {
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
			panic(fmt.Sprintf("core: %s is neither an identity field nor the side field", path))
		}
		if k := v.Kind(); k != reflect.Int && k != reflect.Int64 && k != reflect.Float64 {
			panic(fmt.Sprintf("core: identity field %s is a %s", path, k))
		}
		put(tag, at, v)
	}
	walk("Costs", reflect.ValueOf(res.Costs), nil)
	walk("EM", reflect.ValueOf(res.EM), nil)
}

// word is an identity field's value as a word: a float's bits.
func word(v reflect.Value) uint64 {
	if v.Kind() == reflect.Float64 {
		return math.Float64bits(v.Float())
	}
	return uint64(v.Int())
}

// saved is vp's context as its Save writes it, in enc's buffer.
func saved(enc *words.Encoder, vp bsp.VP) []uint64 {
	enc.Reset()
	vp.Save(enc)
	return enc.Words()
}

// Fingerprint digests a run's identity into one comparable value: the
// words of every final VP's saved context, then each identity field that
// is not zero as its tag, its place in the lists it lies in, and its
// value. A zero is left out, so deleting a field that reads zero moves no
// fingerprint, and neither does renaming one.
func Fingerprint(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(w uint64) {
		for i := range buf {
			buf[i] = byte(w >> (8 * i))
		}
		h.Write(buf[:])
	}
	enc := words.NewEncoder(nil)
	for _, vp := range res.VPs {
		for _, w := range saved(enc, vp) {
			put(w)
		}
		// Separate VPs so context boundaries shift the digest.
		h.Write([]byte("|"))
	}
	identity(res, func(tag int, at []int, v reflect.Value) {
		w := word(v)
		if w == 0 {
			return
		}
		put(uint64(tag))
		for _, i := range at {
			put(uint64(i))
		}
		put(w)
	})
	return h.Sum64()
}

// Diff names the first thing in which a and b differ under the identity
// contract — "VP 3" for a VP's saved context, or one run lacks it, or a
// field with its indices and both values, "EM.PerProc[1].PerDrive[3].
// BlocksWritten: 12 vs 13" — and is "" when they agree. Unlike
// Fingerprint it tells a zero from a missing list entry.
func Diff(a, b *Result) string {
	ea, eb := words.NewEncoder(nil), words.NewEncoder(nil)
	for i := range max(len(a.VPs), len(b.VPs)) {
		if i >= min(len(a.VPs), len(b.VPs)) || !slices.Equal(saved(ea, a.VPs[i]), saved(eb, b.VPs[i])) {
			return fmt.Sprintf("VP %d", i)
		}
	}
	type field struct {
		name string
		v    reflect.Value
	}
	fields := func(res *Result) (out []field) {
		identity(res, func(tag int, at []int, v reflect.Value) {
			name, t := "", reflect.TypeOf(*res)
			for _, part := range strings.Split(identityFields[tag], ".") {
				f, _ := t.FieldByName(part)
				if name, t = name+"."+part, f.Type; t.Kind() == reflect.Slice {
					name, t, at = name+"["+strconv.Itoa(at[0])+"]", t.Elem(), at[1:]
				}
			}
			out = append(out, field{name[1:], v})
		})
		return append(out, field{"(end)", reflect.ValueOf(0)})
	}
	fa, fb := fields(a), fields(b)
	for i := range fa {
		if x, y := fa[i], fb[i]; x.name != y.name {
			return fmt.Sprintf("%s vs %s", x.name, y.name)
		} else if word(x.v) != word(y.v) {
			return fmt.Sprintf("%s: %v vs %v", x.name, x.v, y.v)
		}
	}
	return ""
}
