// Package journal implements the write-ahead commit journal behind
// Options.StateDir. The engines commit one record per compound-superstep
// barrier (the encoded checkpoint manifest: superstep index, PRNG state,
// allocator and fault-layer state, context directory, held contexts,
// statistics). A record is a complete checkpoint, not a delta, so the
// journal keeps one: the last committed record, from which a resumed run
// continues.
//
// On disk a journal is one file in the state directory, and a second
// while a record awaits its decision:
//
//	journal.wal  — the last committed record, one frame (empty: nothing
//	    committed yet):
//	    word 0: record magic
//	    word 1: sequence number (the records committed before it)
//	    word 2: payload length in words
//	    words 3..3+n: the payload
//	    last word: checksum over words 1..3+n
//	journal.prep — the prepared record, the same frame with the next
//	    sequence number.
//
// There is one commit point: a record is written and fsynced to
// journal.prep, then renamed over journal.wal and the directory fsynced.
// A crash before the rename leaves the old record committed and a
// prepared file beside it, which Open removes (a clean rollback to the
// last commit — the engines deterministically redo the lost superstep)
// and OpenPrepared keeps for a two-phase-commit decision; a crash after
// it leaves the new record alone. A committed record that is truncated
// or fails its checksum is corruption, reported as a typed *Error and
// never silently replayed.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"embsp/internal/disk"
	"embsp/internal/obs"
)

const recMagic = 0x454d424a524e4c31 // "EMBJRNL1"

// Error reports a structurally damaged journal: a committed record that
// cannot be read back intact.
type Error struct {
	Path   string
	Record int // sequence number the damaged record claims, -1 when it claims none
	Reason string
}

func (e *Error) Error() string {
	if e.Record < 0 {
		return fmt.Sprintf("journal: %s: %s", e.Path, e.Reason)
	}
	return fmt.Sprintf("journal: %s: record %d: %s", e.Path, e.Record, e.Reason)
}

// Journal is a one-checkpoint commit log. It is not safe for concurrent
// use.
type Journal struct {
	dir       string
	wal, prep string   // the committed and the prepared record's files
	dh        *os.File // dir, opened by the first syncDir and kept until Close
	count     int      // committed records
	torn      bool

	// last and pending are a pair of reused buffers, each a record's
	// checksummed words [seq, n, payload…]: the committed record, and the
	// prepared one, which a commit swaps in.
	last, pending []uint64
	hasPending    bool
	chunk         [4096]byte // the frame is written through it

	tr   *obs.Tracer
	tpid int
}

// SetTracer attaches an observability tracer: every Append records a
// "journal-append" span covering the prepared file's write and fsync and
// the rename that commits it, labelled with pid as the trace process id.
// Pure wall-clock observability; nil detaches.
func (j *Journal) SetTracer(tr *obs.Tracer, pid int) {
	j.tr, j.tpid = tr, pid
}

func walPath(dir string) string  { return filepath.Join(dir, "journal.wal") }
func prepPath(dir string) string { return filepath.Join(dir, "journal.prep") }

// newJournal is the journal in dir, its committed record last (count
// of them).
func newJournal(dir string, count int, last []uint64) *Journal {
	return &Journal{dir: dir, wal: walPath(dir), prep: prepPath(dir), count: count, last: last}
}

// syncDir fsyncs the journal's directory, so that a record file just
// created, renamed or removed in it survives a crash. The directory
// stays open for the next one.
func (j *Journal) syncDir() error {
	if j.dh == nil {
		dh, err := os.Open(j.dir)
		if err != nil {
			return err
		}
		j.dh = dh
	}
	return j.dh.Sync()
}

// Create starts a fresh journal in dir, discarding any previous one.
func Create(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	j := newJournal(dir, 0, nil)
	if err := j.writeFile(j.wal, nil); err != nil {
		return nil, err
	}
	if err := os.Remove(j.prep); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := j.syncDir(); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// Read returns the last committed payload of the journal in dir and the
// number of records committed, without opening it for appending or
// touching a prepared record. A directory with no journal at all reports
// 0 with a nil error.
func Read(dir string) (last []uint64, count int, err error) {
	if _, err := os.Stat(walPath(dir)); errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	j, err := load(dir)
	if err != nil {
		return nil, 0, err
	}
	last, count = j.Records()
	return last, count, nil
}

// Committed reports how many committed records the journal in dir holds.
// Callers use it to decide between a fresh run and Options.Resume: a
// state directory whose run died before its first barrier commit has
// nothing to resume from and must be started fresh.
func Committed(dir string) (int, error) {
	_, count, err := Read(dir)
	return count, err
}

// parseJournal decodes the contents of journal.wal: nothing committed, or
// exactly one intact record — its checksummed words and the count it
// makes.
func parseJournal(buf []byte) ([]uint64, int, *Error) {
	if len(buf) == 0 {
		return nil, 0, nil
	}
	ws, n, err := parseRecord(buf)
	if err != nil {
		return nil, 0, err
	}
	if n != int64(len(buf)) {
		return nil, 0, &Error{Record: int(ws[0]), Reason: fmt.Sprintf("holds %d bytes after its record: a journal that kept every record, written before the journal held one checkpoint", int64(len(buf))-n)}
	}
	return ws, int(ws[0]) + 1, nil
}

// load reads dir's committed record.
func load(dir string) (*Journal, error) {
	buf, err := os.ReadFile(walPath(dir))
	if err != nil {
		return nil, &Error{Path: walPath(dir), Record: -1, Reason: fmt.Sprintf("unreadable journal: %v", err)}
	}
	ws, count, jerr := parseJournal(buf)
	if jerr != nil {
		jerr.Path = walPath(dir)
		return nil, jerr
	}
	return newJournal(dir, count, ws), nil
}

// Open loads an existing journal for resumption: the committed record,
// verified. A prepared record beside it is an uncommitted tail (a crash
// before its rename); Open removes it and reports Torn.
func Open(dir string) (*Journal, error) {
	j, err := load(dir)
	if err != nil {
		return nil, err
	}
	if err := j.dropPrepared(); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// OpenPrepared is Open for two-phase-commit participants: when the
// prepared file is one intact record with the next sequence number — the
// signature of a crash between PREPARE and the coordinator's decision —
// it is retained as Pending instead of being removed, so the caller can
// re-apply the coordinator's decision via CommitPending or AbortPending.
// Any other prepared file (a torn frame, another sequence) is removed
// exactly as Open does.
func OpenPrepared(dir string) (*Journal, error) {
	j, err := load(dir)
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(prepPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return j, nil
	}
	if err == nil {
		if ws, n, rerr := parseRecord(buf); rerr == nil && n == int64(len(buf)) && ws[0] == uint64(j.count) {
			j.pending, j.hasPending = ws, true
			return j, nil
		}
	}
	if err := j.dropPrepared(); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// dropPrepared removes an undecided prepared file, if there is one.
func (j *Journal) dropPrepared() error {
	err := os.Remove(j.prep)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	j.torn = true
	return j.syncDir()
}

// parseRecord decodes one framed record, returning its checksummed words
// [seq, n, payload…] and the frame length in bytes.
func parseRecord(buf []byte) ([]uint64, int64, *Error) {
	if len(buf) < 32 {
		return nil, 0, &Error{Record: -1, Reason: "record truncated before its header"}
	}
	if binary.LittleEndian.Uint64(buf[0:]) != recMagic {
		return nil, 0, &Error{Record: -1, Reason: "bad record magic"}
	}
	seq := binary.LittleEndian.Uint64(buf[8:])
	// A sequence number that overflows int names no record a journal
	// could have committed (and would make a negative count).
	if seq >= 1<<62 {
		return nil, 0, &Error{Record: -1, Reason: "record claims an implausible sequence number"}
	}
	nwords := binary.LittleEndian.Uint64(buf[16:])
	if nwords > uint64(len(buf))/8 || int64(len(buf)) < 8*(4+int64(nwords)) {
		return nil, 0, &Error{Record: int(seq), Reason: "record truncated mid-payload"}
	}
	frame := 8 * (4 + int64(nwords))
	ws := make([]uint64, 2+nwords)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(buf[8+8*i:])
	}
	if disk.Checksum(ws) != binary.LittleEndian.Uint64(buf[frame-8:]) {
		return nil, 0, &Error{Record: int(seq), Reason: "record fails its checksum"}
	}
	return ws, frame, nil
}

// writeFile replaces path's contents with the frame of ws (no frame:
// nil) and fsyncs it. The frame goes out a chunk at a time, through a
// buffer the journal owns.
func (j *Journal) writeFile(path string, ws []uint64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if ws != nil {
		buf := binary.LittleEndian.AppendUint64(j.chunk[:0], recMagic)
		for i, sum := 0, disk.Checksum(ws); i <= len(ws) && err == nil; i++ {
			w := sum
			if i < len(ws) {
				w = ws[i]
			}
			if buf = binary.LittleEndian.AppendUint64(buf, w); len(buf) == len(j.chunk) || i == len(ws) {
				_, err = f.Write(buf)
				buf = j.chunk[:0]
			}
		}
	}
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// stage writes and fsyncs the next record's prepared file.
func (j *Journal) stage(payload []uint64) error {
	if j.hasPending {
		return &Error{Path: j.prep, Record: j.count, Reason: "prepare with a record already pending"}
	}
	j.pending = append(append(j.pending[:0], uint64(j.count), uint64(len(payload))), payload...)
	return j.writeFile(j.prep, j.pending)
}

// Append commits one record: its prepared file is written and fsynced,
// then renamed over the committed one. The payload is only considered
// committed once Append returns nil.
func (j *Journal) Append(payload []uint64) error {
	sp := j.tr.Begin(obs.CatEngine, "journal-append", j.tpid, 0)
	defer sp.End()
	if err := j.stage(payload); err != nil {
		return err
	}
	j.hasPending = true
	return j.CommitPending()
}

// Prepare durably writes the next record without committing it: the
// PREPARE half of a two-phase commit. After Prepare returns nil the
// record survives any crash, but Open still removes it as an uncommitted
// tail (rollback) unless the coordinator's decision is re-applied via
// OpenPrepared + CommitPending. At most one record may be pending at a
// time.
func (j *Journal) Prepare(payload []uint64) error {
	if err := j.stage(payload); err != nil {
		return err
	}
	if err := j.syncDir(); err != nil {
		return err
	}
	j.hasPending = true
	return nil
}

// CommitPending commits the pending record — the COMMIT half of a
// two-phase commit: one rename over the committed record, made durable
// by the directory's fsync. The record is only considered committed once
// CommitPending returns nil.
func (j *Journal) CommitPending() error {
	if !j.hasPending {
		return &Error{Path: j.wal, Record: j.count, Reason: "commit with no record pending"}
	}
	if err := os.Rename(j.prep, j.wal); err != nil {
		return err
	}
	j.count++
	j.last, j.pending, j.hasPending = j.pending, j.last, false
	return j.syncDir()
}

// AbortPending discards the pending record, removing its prepared file —
// the ABORT decision of a two-phase commit. A no-op when nothing is
// pending.
func (j *Journal) AbortPending() error {
	if !j.hasPending {
		return nil
	}
	j.hasPending = false
	if err := os.Remove(j.prep); err != nil {
		return err
	}
	return j.syncDir()
}

// HasPending reports whether a prepared record awaits its decision.
func (j *Journal) HasPending() bool { return j.hasPending }

// Pending returns the prepared-but-undecided record payload (empty for
// an empty payload), or nil when nothing is pending. The caller must
// not modify it, and it is valid until the journal's next Prepare.
func (j *Journal) Pending() []uint64 {
	if !j.hasPending {
		return nil
	}
	return j.pending[2:]
}

// Records returns the last committed payload (nil when there is none)
// and the number of records committed. The caller must not modify the
// payload, which is valid until the journal's next commit.
func (j *Journal) Records() (last []uint64, count int) {
	if j.count == 0 {
		return nil, 0
	}
	return j.last[2:], j.count
}

// Torn reports whether opening the journal found and removed a prepared
// record no decision committed — the signature of a crash before its
// rename.
func (j *Journal) Torn() bool { return j.torn }

// Close releases the journal: the directory it keeps open. Every record
// it committed is durable already; it must not be appended to
// afterwards.
func (j *Journal) Close() error {
	if j.dh == nil {
		return nil
	}
	err := j.dh.Close()
	j.dh = nil
	return err
}
