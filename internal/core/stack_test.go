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
// it is, for every combination of base store, redundancy
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
		for _, mode := range []redundancy.Mode{redundancy.None, redundancy.Mirror, redundancy.Parity} {
			for _, faults := range []bool{false, true} {
				for _, pipeline := range []int{0, -1} {
					if base == "mapped" && !disk.MmapSupported() {
						continue
					}
					opts := Options{Redundancy: mode, MappedStore: base == "mapped"}
					if faults {
						opts.FaultPlan = plan
					}
					if pipeline == 0 {
						opts.DriveLatency = time.Microsecond
					}
					// The tiers=0 segment keeps the names these subtests had
					// while a chain could hold store tiers (DESIGN.md §17).
					name := fmt.Sprintf("%s/tiers=0/%v/faults=%v/pipeline=%d", base, mode, faults, pipeline)
					t.Run(name, func(t *testing.T) {
						dir := ""
						if base != "array" {
							dir = t.TempDir()
						}
						s, err := openStack(dir, cfg, opts, false, k, mu, gamma, 0)
						if err != nil {
							t.Fatal(err)
						}
						checkChain(t, s, base, mode, faults, opts)
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

func checkChain(t *testing.T, s storeStack, base string, mode redundancy.Mode, faulty bool, opts Options) {
	t.Helper()
	// The links, outermost first.
	var want []string
	if faulty {
		want = append(want, "*fault.Disk")
	}
	if mode != redundancy.None {
		want = append(want, "*redundancy.Store")
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
	if m := disk.Find[*disk.Mapped](s.chain); (m != nil) != (base == "mapped") {
		t.Errorf("Find[*disk.Mapped] = %v over a %s base", m, base)
	}
	if s.durable() != (base != "array") {
		t.Errorf("durable() = %v over a %s base", s.durable(), base)
	}
	wantPF, _ := bottom.(*disk.File) // array and mapped take no hint
	if pf := s.prefetcher(); pf != wantPF {
		t.Errorf("prefetch target is %p, want %p (the file store at the base, or nil)", pf, wantPF)
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
