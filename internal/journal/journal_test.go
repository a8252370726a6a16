package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"
)

func mustCreate(t *testing.T, dir string, payloads ...[]uint64) {
	t.Helper()
	j, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// records lists the record files in dir: a journal holds one committed
// record and, until its decision, one prepared record.
func records(t *testing.T, dir string) (committed, prepared int) {
	t.Helper()
	if fi, err := os.Stat(walPath(dir)); err == nil && fi.Size() > 0 {
		committed = 1
	}
	if _, err := os.Stat(prepPath(dir)); err == nil {
		prepared = 1
	}
	return committed, prepared
}

// TestJournalRoundtrip: every commit replaces the checkpoint, so a
// reopened journal holds the last payload and counts every commit; the
// file holds that one record, whatever came before it.
func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := [][]uint64{{1, 2, 3}, {}, {0xdeadbeef}, {9, 9, 9, 9}}
	mustCreate(t, dir, want...)

	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	last, n := j.Records()
	if n != len(want) || !reflect.DeepEqual(last, want[len(want)-1]) {
		t.Fatalf("got record %v of %d, want %v of %d", last, n, want[len(want)-1], len(want))
	}
	if j.Torn() {
		t.Error("clean journal reported torn")
	}
	if fi, _ := os.Stat(walPath(dir)); fi.Size() != 8*(4+4) {
		t.Errorf("journal.wal is %d bytes, want the one frame of the last record, %d", fi.Size(), 8*(4+4))
	}

	// Appending after reopen continues the sequence.
	if err := j.Append([]uint64{5}); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if last, n := j2.Records(); n != len(want)+1 || !reflect.DeepEqual(last, []uint64{5}) {
		t.Fatalf("after reopen-append: record %v of %d, want [5] of %d", last, n, len(want)+1)
	}
	// An empty payload survives as one.
	mustCreate(t, dir, []uint64{})
	if last, n, err := Read(dir); err != nil || n != 1 || last == nil || len(last) != 0 {
		t.Fatalf("empty record reads back as %v of %d, %v", last, n, err)
	}
}

// TestJournalTornTail simulates a crash while a record is prepared: a
// prepared file that is not an intact record beside the committed one
// must be removed, reported via Torn, and the committed record kept.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1}, []uint64{2})
	if err := os.WriteFile(prepPath(dir), make([]byte, 41), 0o666); err != nil { // a partial third record
		t.Fatal(err)
	}

	j, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must roll back cleanly, got: %v", err)
	}
	defer j.Close()
	if !j.Torn() {
		t.Error("Torn() = false after the tail's removal")
	}
	if last, n := j.Records(); n != 2 || last[0] != 2 {
		t.Fatalf("got record %v of %d, want the committed [2] of 2", last, n)
	}
	if c, p := records(t, dir); c != 1 || p != 0 {
		t.Errorf("%d committed and %d prepared records after the rollback, want 1 and 0", c, p)
	}
	// The rolled-back journal accepts new commits at the old position.
	if err := j.Append([]uint64{3}); err != nil {
		t.Fatal(err)
	}
	if _, n := j.Records(); n != 3 {
		t.Fatalf("%d records after the re-append, want 3", n)
	}
}

// TestJournalUnsyncedRenameWindow simulates a crash in which the commit's
// rename itself was lost (it hit the directory but the crash landed
// before — or despite — the directory fsync, so the old record reappears
// after reboot, with the prepared file beside it): the journal must come
// back as the OLD commit point, the prepared record rolled back, and keep
// accepting appends from there.
func TestJournalUnsyncedRenameWindow(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1}, []uint64{2})
	oldWal, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]uint64{3}); err != nil {
		t.Fatal(err)
	}
	newWal, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// The reboot resurrects the pre-rename directory.
	if err := os.WriteFile(walPath(dir), oldWal, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prepPath(dir), newWal, 0o666); err != nil {
		t.Fatal(err)
	}

	j, err = Open(dir)
	if err != nil {
		t.Fatalf("lost rename must roll back cleanly, got: %v", err)
	}
	defer j.Close()
	if !j.Torn() {
		t.Error("Torn() = false after rolling back the record the rename lost")
	}
	if last, n := j.Records(); n != 2 || last[0] != 2 {
		t.Fatalf("got record %v of %d, want the [2] of 2 the old file holds", last, n)
	}
	if err := j.Append([]uint64{5}); err != nil {
		t.Fatal(err)
	}
	if last, n := j.Records(); n != 3 || last[0] != 5 {
		t.Fatalf("after re-append: record %v of %d, want [5] of 3", last, n)
	}
}

// TestJournalCorruptRecord flips a byte inside the committed record: Open
// must report a typed *Error naming that record, never replay it.
func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1, 1}, []uint64{2, 2})

	buf, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-12] ^= 0x01 // inside record 1's payload
	if err := os.WriteFile(walPath(dir), buf, 0o666); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir)
	var je *Error
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *journal.Error", err)
	}
	if je.Record != 1 {
		t.Errorf("error names record %d, want 1", je.Record)
	}
}

// TestJournalShortLog: a committed record cut short (a silently
// truncated file) is corruption, not a clean rollback.
func TestJournalShortLog(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1}, []uint64{2})

	fi, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath(dir), fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	var je *Error
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *journal.Error", err)
	}
}

// TestJournalBadHead: a committed file that does not begin with a record
// header — the commit point holds no record — is a typed error with
// Record == -1; so is the journal of a directory that has none.
func TestJournalBadHead(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1})

	buf, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[0:], 99) // the record magic
	if err := os.WriteFile(walPath(dir), buf, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	var je *Error
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *journal.Error", err)
	}
	if je.Record != -1 {
		t.Errorf("error names record %d, want -1", je.Record)
	}

	if _, err := Open(t.TempDir()); !errors.As(err, &je) {
		t.Errorf("Open of an empty directory: got %v, want *journal.Error", err)
	}
}

// TestJournalRefusesManyRecords: a journal.wal that holds a record and
// more after it is the log of a journal that kept every record (PR 24 and
// older). It is refused typed, and neither Open nor Committed changes a
// byte of it.
func TestJournalRefusesManyRecords(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1})
	one, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	log := append(one, one...) // two frames: record 0, then more
	if err := os.WriteFile(walPath(dir), log, 0o666); err != nil {
		t.Fatal(err)
	}
	var je *Error
	if _, err := Committed(dir); !errors.As(err, &je) {
		t.Fatalf("Committed: got %v, want *journal.Error", err)
	}
	for _, open := range []func(string) (*Journal, error){Open, OpenPrepared} {
		if _, err := open(dir); !errors.As(err, &je) {
			t.Fatalf("got %v, want *journal.Error", err)
		}
	}
	if got, _ := os.ReadFile(walPath(dir)); !reflect.DeepEqual(got, log) {
		t.Error("the refused journal was changed")
	}
}

// TestAppendAllocatesNoPayload: an append copies its payload once, into
// the journal's prepared half of the last/pending pair, and writes the
// frame through a fixed buffer; after warm-up, neither allocates, so an
// append costs the same handful of small objects whatever the payload.
func TestAppendAllocatesNoPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("64 fsynced appends")
	}
	j, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	payload := make([]uint64, 4096)
	for i := range payload {
		payload[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for i := 0; i < 2; i++ { // warm-up: both halves of the pair
		if err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(64, func() {
		if err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes 65 calls, one of them its own warm-up.
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / 65
	if allocs > 16 || perAppend > 8*4096/8 {
		t.Errorf("an append of %d words allocates %.0f objects, %.0f bytes; want at most 16 objects and an eighth of the payload's %d bytes", len(payload), allocs, perAppend, 8*len(payload))
	}
	if last, n := j.Records(); n != 67 || !reflect.DeepEqual(last, payload) {
		t.Fatalf("journal holds record %d, want the payload as record 67", n)
	}
}
