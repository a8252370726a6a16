package disk

import (
	"fmt"
	"runtime"
)

// Mapped is an mmap-backed Store: the same on-disk layout as File —
// one drive-NNN.dat per simulated drive, the checksummed slots of
// codec.go, the same geometry file — but the drive files are mapped into
// memory instead of accessed with pread/pwrite. A read decodes the
// mapped slot straight into the caller's buffer and a write encodes
// straight into the mapping; durability is established by Sync via
// msync+fsync. Crash safety is File's: the per-track checksum makes a
// torn mapped write detectable, and releases and allocations stay
// metadata-only. SIGBUS on access beyond end-of-file is unreachable by
// construction: the file is always ftruncated to the mapped capacity
// before the mapping is created.
//
// No engine opens it: measured against File it won no cell and its
// files were 1.5–10× larger (DESIGN.md §16.2). It is kept, fully
// synchronous and without options, only for the benchmark's per-drive
// rows, and goes with disk.Tier.
type Mapped struct {
	model      // the EM-model half; its mu also guards everything below
	driveFiles // the drive files

	maps     [][]byte // drive d's file, mapped; len = capT[d]*slotB
	capT     []int    // mapped capacity of drive d, in tracks
	needSync []bool   // drives with writes (or growth) since their last Sync
}

// MappedOptions tunes an mmap-backed store; there is nothing to tune.
type MappedOptions struct{}

// MmapSupported reports whether this platform can open a Mapped store.
func MmapSupported() bool { return mmapSupported }

// minMappedTracks is the initial per-drive mapped capacity; growth
// doubles from there, so remaps are O(log tracks) per drive.
const minMappedTracks = 64

// OpenMapped opens (resume) or creates (fresh) an mmap-backed store
// under dir, with the same directory contract as OpenFile: a fresh
// open truncates previous drive files and records the geometry, a
// resuming open requires a matching geometry and leaves all track
// contents in place — including contents written by a File store,
// which uses the identical layout.
func OpenMapped(dir string, cfg Config, resume bool, _ MappedOptions) (*Mapped, error) {
	if !mmapSupported {
		return nil, errNoMmap()
	}
	df, err := openDrives(dir, cfg, resume)
	if err != nil {
		return nil, err
	}
	m := &Mapped{
		driveFiles: df,
		maps:       make([][]byte, cfg.D),
		capT:       make([]int, cfg.D),
		needSync:   make([]bool, cfg.D),
	}
	m.model.init(cfg, m)
	for d, fh := range m.files {
		// Map at least the existing contents (a resume may adopt a
		// store a File run grew track by track), rounded up to whole
		// slots and the minimum capacity.
		st, err := fh.Stat()
		if err != nil {
			m.Close()
			return nil, err
		}
		capT := int((st.Size() + m.slotB - 1) / m.slotB)
		if capT < minMappedTracks {
			capT = minMappedTracks
		}
		if err := m.remap(d, capT); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// errNoMmap exists so the non-Linux build's stubs and the portable
// OpenMapped guard share one definition site.
func errNoMmap() error {
	return fmt.Errorf("disk: mmap-backed store is not supported on %s", runtime.GOOS)
}

// remap grows drive d's mapping to newCap tracks: extend the file
// first (so no mapped page is ever beyond end-of-file), then replace
// the mapping. Called under m.mu (or during Open, single-threaded).
func (m *Mapped) remap(d, newCap int) error {
	if err := m.files[d].Truncate(int64(newCap) * m.slotB); err != nil {
		return fmt.Errorf("disk: growing mapped drive %d to %d tracks: %w", d, newCap, err)
	}
	nb, err := mmapFile(m.files[d], newCap*int(m.slotB))
	if err != nil {
		return fmt.Errorf("disk: mapping drive %d (%d tracks): %w", d, newCap, err)
	}
	if m.maps[d] != nil {
		if err := munmapFile(m.maps[d]); err != nil {
			_ = munmapFile(nb)
			return err
		}
	}
	m.maps[d] = nb
	m.capT[d] = newCap
	// The file grew: its new size must reach disk with the next Sync.
	m.needSync[d] = true
	return nil
}

// slot returns the mapped bytes of track t on drive d. Caller holds
// m.mu and has ensured t < m.capT[d].
func (m *Mapped) slot(d, t int) []byte {
	off := int64(t) * m.slotB
	return m.maps[d][off : off+m.slotB]
}

// getSlot and putSlot are the store's raw slot moves, and readSlot and
// writeSlot the same moves: a mapped access has no span and no latency.

// getSlot decodes the mapped slot (d, t) into dst. A slot that does not
// decode, or one beyond the mapped (= physical) capacity, which was
// never written, is a *CorruptTrackError. Caller holds m.mu.
func (m *Mapped) getSlot(d, t int, dst []uint64) error {
	if t >= m.capT[d] || !decodeSlot(m.slot(d, t), dst) {
		return m.corrupt(d, t)
	}
	return nil
}

// putSlot encodes src into the mapped slot (d, t), growing the mapping
// as needed. Caller holds m.mu.
func (m *Mapped) putSlot(d, t int, src []uint64) error {
	if t >= m.capT[d] {
		newCap := m.capT[d] * 2
		if newCap <= t {
			newCap = t + 1
		}
		if err := m.remap(d, newCap); err != nil {
			return err
		}
	}
	encodeSlot(m.slot(d, t), src)
	m.needSync[d] = true
	return nil
}

func (m *Mapped) readSlot(d, t int, dst []uint64) error  { return m.getSlot(d, t, dst) }
func (m *Mapped) writeSlot(d, t int, src []uint64) error { return m.putSlot(d, t, src) }

// Sync makes all stored track contents durable: kick writeback of the
// dirty mappings (msync MS_ASYNC), then fsync the files. On Linux's
// unified page cache the fsync alone covers mmap-dirtied pages — it
// is what establishes durability; the asynchronous msync just starts
// the writeback early. The fsync also makes the file size from any
// growth ftruncate durable. Drives with no stores since their last Sync
// are skipped.
func (m *Mapped) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := range m.files {
		if m.files[d] == nil || !m.needSync[d] {
			continue
		}
		err := msyncFile(m.maps[d])
		if err == nil {
			err = m.files[d].Sync()
		}
		if err != nil {
			return err
		}
		m.needSync[d] = false
	}
	return nil
}

// Close unmaps and closes every drive file.
func (m *Mapped) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for d := range m.files {
		if m.maps[d] != nil {
			if err := munmapFile(m.maps[d]); err != nil && first == nil {
				first = err
			}
			m.maps[d] = nil
			m.capT[d] = 0
		}
	}
	if err := m.closeFiles(); first == nil {
		first = err
	}
	return first
}
