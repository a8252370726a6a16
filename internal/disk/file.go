package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"embsp/internal/gang"
	"embsp/internal/obs"
)

// File is a file-backed Store: one regular file per simulated drive,
// accessed with track-aligned pread/pwrite. It is the durable backend
// behind Options.StateDir — the direction Robillard's EM-BSP
// simulation takes, backing the simulated drives with real files — and
// it implements exactly the same model semantics and I/O accounting as
// the in-memory Array, so a durable run is bitwise identical to an
// in-memory one.
//
// On-disk layout: drive d is the sparse file drive-NNN.dat, whose
// track t occupies one fixed-size checksummed slot (see codec.go). The
// per-track checksum detects torn writes: a slot whose payload does
// not match its checksum (e.g. after a crash mid-pwrite), or one
// without its magic word under a track the metadata lists as written,
// reads back as a typed *CorruptTrackError instead of silently
// delivering garbage or zeros. A
// small geometry file pins (D, B) so a resume with a mismatched
// machine configuration fails up front.
//
// Allocator metadata (free lists, fresh sets, bump marks, access
// statistics) lives in memory — the shared EM-model core of model.go —
// and is persisted by the engines' commit journal, not by the store
// itself: free, fresh and never-allocated tracks read zeros by that
// metadata, so neither Release nor Alloc writes anything, a freed
// track's bytes stay intact until a commit record that no longer names
// it is durable, and the physical writes are the model's block writes.
//
// # Physical concurrency
//
// At page-cache speed (AccessLatency zero) the store is synchronous,
// every transfer inside the call: a worker round-trip would cost more
// than the transfer it reschedules. With emulated latency the store
// moves its bytes through the disk layer's one staging cache (stage,
// pool.go), which runs one worker goroutine per drive; worker d serves
// drive d's physical transfers, so every drive keeps strict FIFO order
// while distinct drives proceed concurrently. One ReadOp/WriteOp call
// fans its request list (at most one track per drive) out across the
// workers, so one op's transfers sleep on D workers at once. A miss
// is a private fill on its drive's queue; writes are absorbed as
// write-behind entries and land asynchronously; Prefetch stages reads
// ahead of need. Crucially, none of this is visible to the model: all
// accounting — Stats, the sequential/random access chains, allocation
// order — is applied synchronously at call time in request order, so a
// run with workers is bitwise identical to a run without them. Only
// the physical byte movement is rescheduled; the cache is bounded by a
// mem.Accountant (a soft high-water bound: an operation in flight may
// overshoot it by up to one block per drive, and writes that cannot
// grab budget fall back to stalling until their own transfers
// complete).
//
// A drive is fsynced only by Sync, the barrier's durability point, and
// only when bytes landed on it since its last fsync: every physical
// byte-landing marks its drive, Sync fsyncs the marked drives
// concurrently, and a completed fsync unmarks the drive unless new
// bytes landed while it ran — tracked with a per-drive epoch counter,
// so when Sync returns, every byte landed before the call is on disk.
//
// One deliberate deviation exists on an error path: with workers on, a
// physical write error (e.g. a full disk) surfaces at the next Sync or
// Close rather than from the WriteOp that issued it, with accounting as
// if the write succeeded. It is not reachable from a correct engine on
// a healthy disk.
//
// All methods are safe for concurrent use. Operations that race on the
// same drive serialize in lock order (their relative order, and hence
// the access statistics, are whatever the race decides — exactly the
// indeterminacy the caller asked for); operations on distinct drives
// are independent.
type File struct {
	model      // the EM-model half; its mu also guards st and the fsync marks
	driveFiles // the drive files and their physical options

	buf      []byte  // scratch for one slot (synchronous path and raw hooks, under mu)
	needSync []bool  // drives with bytes landed since their last completed fsync
	wepoch   []int64 // bumped per byte-landing; guards needSync against racing writes
	st       *stage  // the staging cache; workers only under emulated latency

	// The barrier's fsyncs: one gang member a drive (fsync), from open to
	// Close, so that a barrier starts no goroutine and allocates nothing.
	// syncMu serializes Syncs, which share syncEpochs, and Close.
	syncMu     sync.Mutex
	syncEpochs []int64 // per drive: the write epoch a Sync fsyncs it at; -1: not fsynced
	fsyncs     gang.Gang
}

// FileOptions tunes the physical I/O engine of a file-backed store.
// The zero value is the fully synchronous store (every transfer
// performed inside the ReadOp/WriteOp call), which is also what
// OpenFile gives.
type FileOptions struct {
	// CacheWords bounds the prefetch + write-behind cache in words
	// (slot-sized units of B+2 words per track). 0 picks a small
	// default of 4·D tracks; negative means unbounded. Ignored on a
	// synchronous store.
	CacheWords int64
	// AccessLatency emulates the access time of one physical track
	// transfer: every pread/pwrite of a slot sleeps this long first.
	// It models the EM machine's independent physical drives on hosts
	// whose page cache hides real device latency, so schedule quality
	// (D-parallel access, I/O–compute overlap) becomes measurable.
	// Any latency starts one I/O worker goroutine per drive, which pay
	// it concurrently; zero (the default) emulates nothing and keeps the
	// store synchronous. Model accounting is identical either way.
	AccessLatency time.Duration
	// Tracer, when non-nil, records every physical transfer (track
	// reads, writes, fsyncs) as an "io"-category span, labelled
	// with TracePID as the trace process id and 1+drive as the thread
	// id. Pure wall-clock observability: model accounting and results
	// are unaffected; nil (the default) costs nothing.
	Tracer *obs.Tracer
	// TracePID labels the store's spans with the owning processor id.
	TracePID int
}

const geomMagic = 0x454d424747454f4d // "EMBGGEOM"

// CorruptTrackError reports a track the store lists as written whose
// slot does not hold an intact payload: a torn or corrupted write, or a
// slot without its magic word, detected by the file-backed store.
type CorruptTrackError struct {
	Path  string
	Disk  int
	Track int
}

func (e *CorruptTrackError) Error() string {
	return fmt.Sprintf("disk: torn or corrupt track %d of drive %d (%s): the slot fails its magic word or checksum", e.Track, e.Disk, e.Path)
}

// OpenFile opens (resume) or creates (fresh) a synchronous file-backed
// store under dir. A fresh open truncates any previous drive files and
// records the geometry; a resuming open requires the directory to
// exist with a matching geometry and leaves all track contents in
// place (the caller restores allocator metadata via AdoptState from
// its commit journal).
func OpenFile(dir string, cfg Config, resume bool) (*File, error) {
	return OpenFileOpts(dir, cfg, resume, FileOptions{})
}

// OpenFileOpts is OpenFile with physical-concurrency options. Its I/O
// workers, one per drive, start only when there is emulated latency to
// hide.
func OpenFileOpts(dir string, cfg Config, resume bool, opt FileOptions) (*File, error) {
	df, err := openDrives(dir, cfg, resume, opt.AccessLatency, opt.Tracer, opt.TracePID)
	if err != nil {
		return nil, err
	}
	f := &File{
		driveFiles: df,
		buf:        make([]byte, df.slotB),
		needSync:   make([]bool, cfg.D),
		wepoch:     make([]int64, cfg.D),
		syncEpochs: make([]int64, cfg.D),
	}
	f.model.init(cfg, f)
	f.st = newStage(f, opt.CacheWords)
	if opt.AccessLatency > 0 {
		f.st.start()
	}
	f.fsyncs.Start(cfg.D, f.fsync)
	return f, nil
}

// driveFiles is the physical side the two durable stores, File and
// Mapped, share: one drive-NNN.dat per simulated drive in one layout,
// plus the options of a physical access.
type driveFiles struct {
	files []*os.File
	slotB int64         // slot size in bytes
	lat   time.Duration // emulated per-access latency (AccessLatency)
	tr    *obs.Tracer   // physical-transfer spans; nil = no tracing
	tpid  int           // trace pid label (owning processor)
}

// openDrives prepares a state directory and opens its D drive files. A
// fresh open records the geometry and truncates previous drive files;
// a resuming open requires a matching geometry and leaves every byte
// in place.
func openDrives(dir string, cfg Config, resume bool, lat time.Duration, tr *obs.Tracer, tpid int) (driveFiles, error) {
	df := driveFiles{slotB: slotBytes(cfg.B), lat: lat, tr: tr, tpid: tpid}
	if err := cfg.Validate(); err != nil {
		return df, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return df, err
	}
	geomPath := filepath.Join(dir, "geometry")
	flags := os.O_RDWR | os.O_CREATE
	if resume {
		if err := checkGeometry(geomPath, cfg); err != nil {
			return df, err
		}
	} else {
		if err := writeGeometry(geomPath, cfg); err != nil {
			return df, err
		}
		flags |= os.O_TRUNC
	}
	df.files = make([]*os.File, cfg.D)
	for d := range df.files {
		fh, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("drive-%03d.dat", d)), flags, 0o666)
		if err != nil {
			df.closeFiles() //nolint:errcheck // the open error wins
			return df, err
		}
		df.files[d] = fh
	}
	return df, nil
}

// closeFiles closes every open drive file, returning the first error.
func (df *driveFiles) closeFiles() error {
	var first error
	for d, fh := range df.files {
		if fh == nil {
			continue
		}
		if err := fh.Close(); err != nil && first == nil {
			first = err
		}
		df.files[d] = nil
	}
	return first
}

// access starts one physical track access on drive d: it opens the
// access's trace span (the caller defers End) and, when AccessLatency
// is set, sleeps first, exactly as a drive head would spend its access
// time. The sleep happens on whichever goroutine moves the bytes, so
// the synchronous stores pay D sequential access times per parallel op
// while the worker store pays them concurrently — the schedule
// difference the option exists to expose.
func (df *driveFiles) access(name string, d int) obs.Span {
	sp := df.tr.Begin(obs.CatIO, name, df.tpid, 1+d)
	if df.lat > 0 {
		time.Sleep(df.lat)
	}
	return sp
}

// corrupt is the typed error for a slot that does not decode.
func (df *driveFiles) corrupt(d, t int) error {
	return &CorruptTrackError{Path: df.files[d].Name(), Disk: d, Track: t}
}

// writeGeometry records (D, B). The geometry must be durable before any
// journal record can refer to this state directory, so a crash can
// never leave a visible-but-empty (or torn) geometry file that a resume
// would misread as a foreign directory.
func writeGeometry(path string, cfg Config) error {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], geomMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(cfg.D))
	binary.LittleEndian.PutUint64(buf[16:], uint64(cfg.B))
	return ReplaceFile(path, buf)
}

// ReplaceFile durably replaces path's contents with data: a crash at any
// point leaves the old file or the new one, never a torn mix. The data
// goes to path+".tmp", which is fsynced before a rename makes it path,
// and the directory is fsynced after.
func ReplaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, so that an entry just created, renamed or
// removed in it survives a crash.
func SyncDir(dir string) error {
	dh, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(dh.Sync(), dh.Close())
}

func checkGeometry(path string, cfg Config) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("disk: state directory has no readable geometry (is this a previous run's -state-dir?): %w", err)
	}
	if len(buf) != 24 || binary.LittleEndian.Uint64(buf[0:]) != geomMagic {
		return fmt.Errorf("disk: %s is not a store geometry file", path)
	}
	d, b := int(binary.LittleEndian.Uint64(buf[8:])), int(binary.LittleEndian.Uint64(buf[16:]))
	if d != cfg.D || b != cfg.B {
		return fmt.Errorf("disk: state directory was written with D=%d B=%d, resuming run wants D=%d B=%d", d, b, cfg.D, cfg.B)
	}
	return nil
}

// Workers returns the number of I/O worker goroutines (0 when the
// store is synchronous).
func (f *File) Workers() int { return len(f.st.queues) }

// Overlap returns a copy of the accumulated physical-overlap counters.
// They describe wall-clock behaviour only; model statistics are
// independent of them, and ResetStats leaves them alone.
func (f *File) Overlap() OverlapStats { return f.st.overlap() }

// slotWords is what one staged slot is charged against the cache
// budget: its B payload words and two header words.
func (f *File) slotWords() int64 { return int64(f.cfg.B + 2) }

// pread reads and decodes one slot raw — no span, no emulated latency
// — through the given scratch buffer. A slot that does not decode (torn,
// corrupt or never written) is a *CorruptTrackError.
func (f *File) pread(buf []byte, d, t int, dst []uint64) error {
	n, err := f.files[d].ReadAt(buf, int64(t)*f.slotB)
	if err != nil && err != io.EOF {
		return err
	}
	if !decodeSlot(buf[:n], dst) {
		return f.corrupt(d, t)
	}
	return nil
}

// pwrite encodes and writes one slot raw through the scratch buffer.
func (f *File) pwrite(buf []byte, d, t int, src []uint64) error {
	encodeSlot(buf, src)
	_, err := f.files[d].WriteAt(buf, int64(t)*f.slotB)
	return err
}

// readSlotBuf is one physical track read: span, emulated access time,
// pread (one scratch buffer per worker, plus f.buf for the synchronous
// path).
func (f *File) readSlotBuf(buf []byte, d, t int, dst []uint64) error {
	defer f.access("phys-read", d).End()
	return f.pread(buf, d, t, dst)
}

func (f *File) writeSlotBuf(buf []byte, d, t int, src []uint64) error {
	defer f.access("phys-write", d).End()
	return f.pwrite(buf, d, t, src)
}

// readSlot and writeSlot are the synchronous store's slotIO: one
// transfer inside the call, under f.mu, through the store's scratch
// slot.
func (f *File) readSlot(d, t int, dst []uint64) error { return f.readSlotBuf(f.buf, d, t, dst) }

func (f *File) writeSlot(d, t int, src []uint64) error {
	err := f.writeSlotBuf(f.buf, d, t, src)
	f.markWritten(d) // even on error: bytes may have partially landed
	return err
}

// move is a worker's physical transfer of one staged slot, through
// the worker's scratch buffer.
func (f *File) move(buf []byte, a Addr, write bool, data []uint64) error {
	if write {
		return f.writeSlotBuf(buf, a.Disk, a.Track, data)
	}
	return f.readSlotBuf(buf, a.Disk, a.Track, data)
}

// markWritten records that bytes just landed on drive d's file: the
// drive needs an fsync before the next durability point, and the epoch
// bump invalidates a Sync's fsync already in flight (its snapshot no
// longer covers these bytes). Called under f.mu, at the moment a pwrite
// completes — not when it is queued — so a cleared needSync flag
// always means "every landed byte is durable".
func (f *File) markWritten(d int) {
	f.needSync[d] = true
	f.wepoch[d]++
}

// Prefetch stages the given blocks in the cache, so a later ReadOp
// finds their bytes already in memory (see stage.prefetch). It is
// purely a physical hint: Stats are untouched, and a no-op on a
// synchronous store.
func (f *File) Prefetch(addrs []Addr) { f.st.prefetch(addrs) }

// ReadOp performs one parallel read, at most one track per drive, with
// the validation, accounting and blank-track semantics of the shared
// model. Without workers it is the model's synchronous ReadOp; with
// them the staging cache's three phases apply, charging through the
// same account.
func (f *File) ReadOp(reqs []ReadReq) error {
	if f.st.queues == nil {
		return f.model.ReadOp(reqs)
	}
	if len(reqs) == 0 {
		return nil
	}
	if err := checkReads(f.cfg, reqs); err != nil {
		return err
	}

	// Phase 1, under the lock: apply all model accounting in request
	// order (the drives are pairwise distinct, so per-request rollback
	// is exact), serve blank tracks and completed entries immediately,
	// and queue a private fill for every miss — never in the map, and
	// queued in drive FIFO order, which sequences it behind any pending
	// write so it delivers current bytes — so the misses of one op
	// sleep on D workers concurrently.
	var waits []pending
	prev := make([]int, len(reqs))
	f.mu.Lock()
	for i, r := range reqs {
		prev[i] = f.chargeRead(r.Disk, r.Track)
		if f.blank(r.Disk, r.Track) {
			clear(r.Dst)
			continue
		}
		var hit bool
		if waits, hit = f.st.hit(i, r, waits); !hit {
			e := &entry{gone: true, refs: 1, ready: make(chan struct{})}
			f.st.enqueue(Addr{Disk: r.Disk, Track: r.Track}, e)
			waits = append(waits, pending{i, e})
		}
	}
	f.mu.Unlock()

	// Phase 2, no lock: wait for the queued transfers. Phase 3, under
	// the lock again: deliver, then commit the operation or roll the
	// accounting back from the first failing request.
	stall := wait(waits)
	f.mu.Lock()
	defer f.mu.Unlock()
	failIdx, failErr := f.st.deliver(reqs, waits, stall)
	return f.settleRead(reqs, prev, failIdx, failErr)
}

// WriteOp performs one parallel write, at most one track per drive.
// With workers, the payload is captured into the write-behind cache
// and the physical write completes asynchronously (read-your-writes is
// preserved via the cache; durability is established by Sync).
func (f *File) WriteOp(reqs []WriteReq) error {
	if f.st.queues == nil {
		return f.model.WriteOp(reqs)
	}
	if len(reqs) == 0 {
		return nil
	}
	if err := checkWrites(f.cfg, reqs); err != nil {
		return err
	}
	var mine []*entry
	stalled := false
	f.mu.Lock()
	for _, r := range reqs {
		a := Addr{Disk: r.Disk, Track: r.Track}
		f.chargeWrite(r.Disk, r.Track)
		f.drives[r.Disk].unfresh(r.Track)
		data := f.st.pool.get()
		copy(data, r.Src)
		e := &entry{data: data, write: true, words: f.slotWords(), ready: make(chan struct{})}
		if f.st.acct.Grab(e.words) != nil {
			// Budget exhausted: the write still goes through the queue
			// (ordering!), but this call stalls until its own transfers
			// land, which bounds the backlog.
			e.words = 0
			stalled = true
		}
		f.st.drop(a)
		f.st.cache[a] = e
		f.st.enqueue(a, e)
		mine = append(mine, e)
	}
	f.chargeWriteOp(len(reqs))
	if !stalled {
		f.st.ov.AsyncWrites += int64(len(reqs))
	}
	f.mu.Unlock()
	if stalled {
		t0 := time.Now()
		for _, e := range mine {
			<-e.ready
		}
		d := time.Since(t0)
		f.mu.Lock()
		f.st.ov.StallNanos += d.Nanoseconds()
		f.mu.Unlock()
	}
	return nil
}

// Release returns a track to the drive's free list, metadata-only (see
// the model's Release), and drops any cached copy of it: a freed track
// reads as zeros from here on, so its budget is returned (the physical
// bytes may stay).
func (f *File) Release(d, t int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := f.release(d, t)
	if err == nil {
		f.st.drop(Addr{Disk: d, Track: t})
	}
	return err
}

// AdoptState replaces the store's metadata with a captured State — the
// resume path, validated by the model. Queued physical work is drained
// first and the cache cleared: adopted metadata must describe quiesced
// drives.
func (f *File) AdoptState(s StoreState) error {
	f.st.drain()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.adoptState(s); err != nil {
		return err
	}
	f.st.dropAll()
	return nil
}

// Sync drains all queued physical work and fsyncs every drive file
// with un-durable landed bytes, all of them concurrently — on a real
// filesystem the fsync is by far the slowest physical operation, and D
// independent drives can flush in the time of one. The engines call it
// before each journal append: write-ahead discipline requires the data
// a commit record references to be durable before the record itself.
// Any deferred write error surfaces here. A drive with nothing landed
// since its last fsync is skipped, so a barrier pays one fsync per
// drive written since the last one. When Sync returns, every byte
// landed before the call is on disk.
func (f *File) Sync() error {
	t0 := time.Now()
	defer func() {
		if f.st.queues != nil {
			f.mu.Lock()
			f.st.ov.StallNanos += time.Since(t0).Nanoseconds()
			f.mu.Unlock()
		}
	}()
	f.st.drain()
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	// Snapshot which drives need an fsync and at which write epoch;
	// after the fsyncs, clear only marks whose epoch is unchanged (a
	// racing writer's bytes stay marked for the next Sync). A failed
	// fsync clears no mark.
	f.mu.Lock()
	if err := f.st.werr; err != nil {
		f.mu.Unlock()
		return err
	}
	epochs := f.syncEpochs
	for d := range epochs {
		epochs[d] = -1
		if f.files[d] != nil && f.needSync[d] {
			epochs[d] = f.wepoch[d]
		}
	}
	f.mu.Unlock()
	for d, e := range epochs {
		if e >= 0 {
			f.fsyncs.Wake(d)
		}
	}
	if err := f.fsyncs.Wait(); err != nil {
		return err
	}
	f.mu.Lock()
	for d, e := range epochs {
		if e >= 0 && f.wepoch[d] == e {
			f.needSync[d] = false
		}
	}
	f.mu.Unlock()
	return nil
}

// fsync is member d of the fsync gang: it fsyncs drive d.
func (f *File) fsync(d int) error {
	f.st.xfer.begin()
	defer f.st.xfer.end()
	sp := f.tr.Begin(obs.CatIO, "phys-fsync", f.tpid, 1+d)
	defer sp.End()
	return f.files[d].Sync()
}

// Close stops the fsync gang and the I/O workers — queued writes land
// first — and closes every drive file; a Sync after it fsyncs nothing.
func (f *File) Close() error {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	f.fsyncs.Stop()
	f.st.stop()
	f.mu.Lock()
	first := f.st.werr
	f.mu.Unlock()
	if err := f.closeFiles(); first == nil {
		first = err
	}
	return first
}
