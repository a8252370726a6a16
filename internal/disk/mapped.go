package disk

import (
	"fmt"
	"runtime"
	"time"

	"embsp/internal/mem"
	"embsp/internal/obs"
)

// Mapped is an mmap-backed Store: the same on-disk layout as File —
// one drive-NNN.dat per simulated drive, the checksummed slots of
// codec.go, the same geometry file — but the drive files are mapped into
// memory instead of accessed with pread/pwrite. A read decodes the
// mapped slot straight into the caller's buffer (one copy, no syscall,
// no scratch encode/decode round-trip) and a write encodes straight
// into the mapping; durability is established by Sync via msync+fsync.
//
// Because the byte format is identical to File's, the store kinds are
// interchangeable under the engines' commit journal: a run killed on
// one store kind resumes on the other (the config fingerprint
// deliberately excludes the store kind, like it excludes the I/O
// schedule). Crash safety is also File's, unchanged: the per-track
// checksum makes a torn mapped write — the page writeback equivalent
// of a torn pwrite — detectable instead of silently delivering
// garbage, and releases and allocations stay metadata-only: a free or
// fresh track reads blank whatever its slot still holds. The one hazard
// specific to mmap, SIGBUS on access beyond end-of-file, is
// unreachable by construction: the file is always ftruncated to the
// mapped capacity before the mapping is created.
//
// Mapped is fully synchronous (every transfer happens inside the
// call, under one lock) and has no staging cache or prefetch hint:
// there is no physical queue to overlap, which is the point — on page-cache
// fast storage the zero-copy path *is* the fast path, and the group
// pipeline degrades gracefully to the serial schedule exactly as on
// the in-memory Array. Model accounting is the shared core of
// model.go, so runs are bitwise identical across all three.
//
// The words of mapped capacity are tracked in a mem.Accountant
// (MappedHigh) for observability: mapped pages are backed
// by the page cache, not the engine's internal memory M, so they are
// accounted separately and never charged against the engine budget.
type Mapped struct {
	model      // the EM-model half; its mu also guards everything below
	driveFiles // the drive files and their physical options

	maps     [][]byte        // drive d's file, mapped; len = capT[d]*slotB
	capT     []int           // mapped capacity of drive d, in tracks
	needSync []bool          // drives with writes (or growth) since their last Sync
	acct     *mem.Accountant // mapped words, observability only
}

// MappedOptions tunes an mmap-backed store.
type MappedOptions struct {
	// AccessLatency emulates the access time of one track transfer,
	// exactly as FileOptions.AccessLatency does for the synchronous
	// File store: each mapped slot access sleeps this long first,
	// inside the call.
	AccessLatency time.Duration
	// Tracer, when non-nil, records every mapped transfer as an
	// "io"-category span ("map-read", "map-write", "map-sync"),
	// labelled with TracePID and 1+drive like File's spans.
	Tracer *obs.Tracer
	// TracePID labels the store's spans with the owning processor id.
	TracePID int
}

// MmapSupported reports whether this platform can open a Mapped store.
// Callers that want the mmap fast path opportunistically (the engines'
// Options.MappedStore) fall back to OpenFileOpts when it is false.
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
func OpenMapped(dir string, cfg Config, resume bool, opt MappedOptions) (*Mapped, error) {
	if !mmapSupported {
		return nil, errNoMmap()
	}
	df, err := openDrives(dir, cfg, resume, opt.AccessLatency, opt.Tracer, opt.TracePID)
	if err != nil {
		return nil, err
	}
	m := &Mapped{
		driveFiles: df,
		maps:       make([][]byte, cfg.D),
		capT:       make([]int, cfg.D),
		needSync:   make([]bool, cfg.D),
		acct:       mem.NewAccountant(0), // non-positive limit: track, never block
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
		old := int64(len(m.maps[d]) / 8)
		if err := munmapFile(m.maps[d]); err != nil {
			_ = munmapFile(nb)
			return err
		}
		m.acct.Release(old)
	}
	if err := m.acct.Grab(int64(len(nb) / 8)); err != nil {
		// Unlimited accountant: only reachable on arithmetic overflow.
		_ = munmapFile(nb)
		return err
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

// MappedHigh returns the high-water mark of the mapped capacity across
// all drives, in words. Page-cache memory, not engine memory: reported
// for observability, never charged against the engine's M budget.
func (m *Mapped) MappedHigh() int64 { return m.acct.High() }

// get decodes the mapped slot (d, t) into dst raw — no span, no
// emulated latency. A slot that does not decode, or one beyond the
// mapped (= physical) capacity, which was never written, is a
// *CorruptTrackError. Caller holds m.mu.
func (m *Mapped) get(d, t int, dst []uint64) error {
	if t >= m.capT[d] || !decodeSlot(m.slot(d, t), dst) {
		return m.corrupt(d, t)
	}
	return nil
}

// put encodes src into the mapped slot (d, t) raw, growing the mapping
// as needed. Caller holds m.mu.
func (m *Mapped) put(d, t int, src []uint64) error {
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

// readSlot and writeSlot are the store's slotIO: one mapped transfer
// inside the call, under m.mu.

func (m *Mapped) readSlot(d, t int, dst []uint64) error {
	defer m.access("map-read", d).End()
	return m.get(d, t, dst)
}

func (m *Mapped) writeSlot(d, t int, src []uint64) error {
	defer m.access("map-write", d).End()
	return m.put(d, t, src)
}

// Sync makes all stored track contents durable: kick writeback of the
// dirty mappings (msync MS_ASYNC), then fsync the files. On Linux's
// unified page cache the fsync alone covers mmap-dirtied pages — it
// is what establishes durability; the asynchronous msync just starts
// the writeback early. (A synchronous MS_SYNC here would write every
// dirty page back twice per barrier.) The fsync also makes the file
// size from any growth ftruncate durable. Drives with no stores since
// their last Sync are skipped.
func (m *Mapped) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := range m.files {
		if m.files[d] == nil || !m.needSync[d] {
			continue
		}
		sp := m.tr.Begin(obs.CatIO, "map-sync", m.tpid, 1+d)
		err := msyncFile(m.maps[d])
		if err == nil {
			err = m.files[d].Sync()
		}
		sp.End()
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
			m.acct.Release(int64(len(m.maps[d]) / 8))
			m.maps[d] = nil
			m.capT[d] = 0
		}
	}
	if err := m.closeFiles(); first == nil {
		first = err
	}
	return first
}

// ExportTrack reads the committed payload of one track, bypassing all
// model accounting and emulated latency — File.ExportTrack's contract
// on the mapped store. There is no write-behind cache to quiesce, but
// callers Sync first anyway for the durability half of the contract.
func (m *Mapped) ExportTrack(d, t int) ([]uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkRaw("ExportTrack", d, t); err != nil {
		return nil, err
	}
	if m.blank(d, t) {
		return nil, nil
	}
	dst := make([]uint64, m.cfg.B)
	if err := m.get(d, t, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ImportTrack writes one track's B-word payload raw —
// File.ImportTrack's contract on the mapped store.
func (m *Mapped) ImportTrack(d, t int, payload []uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.beginImport(d, t, payload); err != nil {
		return err
	}
	return m.put(d, t, payload)
}
