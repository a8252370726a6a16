package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"embsp/internal/disk"
	"embsp/internal/fault"
	"embsp/internal/redundancy"
)

// TestStoreChain: the chain openStack builds is what DESIGN.md §18 says
// it is, for every combination of base store, tier count, redundancy
// mode, fault plan and physical schedule — the links outermost first,
// what disk.Find returns for each thing the engines look up, the
// methods no link overrides reaching the base through the whole stack,
// and Close on the chain releasing the base. The drive latency picks
// the schedule: pipeline=0 runs under a latency, which starts the file
// store's I/O workers, and pipeline=-1 at none, where it is synchronous.
func TestStoreChain(t *testing.T) {
	cfg := MachineConfig{P: 1, M: 256, D: 2, B: 8}
	const k, mu, gamma = 1, 8, 8
	plan := &fault.Plan{Seed: 3, ReadErrorRate: 0.01, WriteErrorRate: 0.01, CorruptRate: 0.01}
	for _, base := range []string{"array", "file", "mapped"} {
		for tiers := 0; tiers <= 2; tiers++ {
			for _, mode := range []redundancy.Mode{redundancy.None, redundancy.Mirror, redundancy.Parity} {
				for _, faults := range []bool{false, true} {
					for _, pipeline := range []int{0, -1} {
						if base == "array" && tiers > 0 {
							continue // tiers stack above a durable store only
						}
						if base == "mapped" && !disk.MmapSupported() {
							continue
						}
						opts := Options{Redundancy: mode, MappedStore: base == "mapped", Tiers: make([]TierSpec, tiers)}
						if faults {
							opts.FaultPlan = plan
						}
						if pipeline == 0 {
							opts.DriveLatency = time.Microsecond
						}
						name := fmt.Sprintf("%s/tiers=%d/%v/faults=%v/pipeline=%d", base, tiers, mode, faults, pipeline)
						t.Run(name, func(t *testing.T) {
							dir := ""
							if base != "array" {
								dir = t.TempDir()
							}
							s, err := openStack(dir, cfg, opts, false, k, mu, gamma, 0)
							if err != nil {
								t.Fatal(err)
							}
							checkChain(t, s, base, tiers, mode, faults, opts)
							if err := s.chain.Close(); err != nil {
								t.Fatal(err)
							}
							if dir == "" {
								return
							}
							again, err := openStack(dir, cfg, opts, true, k, mu, gamma, 0)
							if err != nil {
								t.Fatalf("the directory does not reopen after Close on the chain: %v", err)
							}
							again.chain.Close()
						})
					}
				}
			}
		}
	}
}

func checkChain(t *testing.T, s storeStack, base string, tiers int, mode redundancy.Mode, faulty bool, opts Options) {
	t.Helper()
	// The links, outermost first.
	var want []string
	if faulty {
		want = append(want, "*fault.Disk")
	}
	if mode != redundancy.None {
		want = append(want, "*redundancy.Store")
	}
	for i := 0; i < tiers; i++ {
		want = append(want, "*disk.Tier")
	}
	want = append(want, map[string]string{"array": "*disk.Array", "file": "*disk.File", "mapped": "*disk.Mapped"}[base])
	var got []string
	var links []disk.Store
	for l := s.chain; l != nil; {
		got, links = append(got, fmt.Sprintf("%T", l)), append(links, l)
		in, ok := l.(interface{ Inner() disk.Store })
		if !ok {
			break
		}
		l = in.Inner()
	}
	if !slices.Equal(got, want) {
		t.Fatalf("chain is %v, want %v", got, want)
	}
	bottom := links[len(links)-1]

	// What the engines look up.
	if fd := disk.Find[*fault.Disk](s.chain); (fd != nil) != faulty || (faulty && fd != links[0]) {
		t.Errorf("Find[*fault.Disk] = %v, want present: %v", fd, faulty)
	}
	if red := disk.Find[*redundancy.Store](s.chain); (red != nil) != (mode != redundancy.None) {
		t.Errorf("Find[*redundancy.Store] = %v under redundancy %v", red, mode)
	}
	var outer disk.Store // the outermost tier, else the base
	n := 0
	for tr := disk.Find[*disk.Tier](s.chain); tr != nil; tr = disk.Find[*disk.Tier](tr.Inner()) {
		if n == 0 {
			outer = tr
		}
		if lvl := tr.TierStats().Level; lvl != n {
			t.Errorf("tier %d from the outside has level %d", n, lvl)
		}
		n++
	}
	if n != tiers {
		t.Errorf("the walk finds %d tiers, want %d", n, tiers)
	}
	if outer == nil {
		outer = bottom
	}
	if m := disk.Find[*disk.Mapped](s.chain); (m != nil) != (base == "mapped") {
		t.Errorf("Find[*disk.Mapped] = %v over a %s base", m, base)
	}
	if s.durable() != (base != "array") {
		t.Errorf("durable() = %v over a %s base", s.durable(), base)
	}
	var wantPF disk.Prefetcher
	if pf, ok := outer.(disk.Prefetcher); ok {
		wantPF = pf // the outermost tier, else *File; array and mapped have none
	}
	if pf := s.prefetcher(); pf != wantPF {
		t.Errorf("prefetch target is %T, want %T", pf, wantPF)
	}
	if f := disk.Find[*disk.File](s.chain); f != nil {
		want := 0 // synchronous at zero latency
		if opts.DriveLatency > 0 {
			want = f.Config().D // one I/O worker per drive
		}
		if n := f.Workers(); n != want {
			t.Errorf("file store runs %d I/O workers at drive latency %v, want %d", n, opts.DriveLatency, want)
		}
	}

	// What no link overrides reaches the base through the whole stack.
	// A fault-free write lands at its logical address, so the raw hooks
	// can be compared track by track.
	payload := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	a, b := disk.Addr{Disk: 0, Track: s.chain.Alloc(0)}, disk.Addr{Disk: 1, Track: s.chain.Alloc(1)}
	clean := s.chain
	if faulty {
		clean = links[1] // keep the comparison free of injected faults
	}
	if err := clean.WriteOp([]disk.WriteReq{{Disk: a.Disk, Track: a.Track, Src: payload}, {Disk: b.Disk, Track: b.Track, Src: payload}}); err != nil {
		t.Fatal(err)
	}
	if err := s.chain.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.chain.State(), bottom.State(); !reflect.DeepEqual(got, want) {
		t.Errorf("State through the chain is %+v, the base's own %+v", got, want)
	}
	dirty := s.chain.TakeDirty()
	if !slices.Contains(dirty, a) {
		t.Errorf("TakeDirty through the chain = %v, missing the written %v", dirty, a)
	}
	if left := bottom.TakeDirty(); len(left) != 0 {
		t.Errorf("the base still holds dirty tracks %v after TakeDirty through the chain", left)
	}
	through, err := s.chain.ExportTrack(a.Disk, a.Track)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bottom.ExportTrack(a.Disk, a.Track)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(through, payload) || !slices.Equal(direct, payload) {
		t.Errorf("ExportTrack %v through the chain, %v on the base, want %v", through, direct, payload)
	}
	image := []uint64{8, 7, 6, 5, 4, 3, 2, 1}
	if err := s.chain.ImportTrack(b.Disk, b.Track, image); err != nil {
		t.Fatal(err)
	}
	if direct, err = bottom.ExportTrack(b.Disk, b.Track); err != nil || !slices.Equal(direct, image) {
		t.Errorf("ImportTrack through the chain left %v on the base (%v), want %v", direct, err, image)
	}
}
