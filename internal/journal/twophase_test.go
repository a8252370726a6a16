package journal

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestJournalPrepareCommit: Prepare leaves the committed record in place
// (a plain Open rolls the prepared one back), CommitPending makes it the
// committed record, and OpenPrepared retains a prepared record across a
// simulated crash.
func TestJournalPrepareCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Prepare([]uint64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if got := j.Pending(); !reflect.DeepEqual(got, []uint64{2, 2}) {
		t.Fatalf("Pending() = %v, want [2 2]", got)
	}
	// A second Prepare while one is pending is an error.
	if err := j.Prepare([]uint64{3}); err == nil {
		t.Fatal("double Prepare: want error, got nil")
	}
	j.Close() // crash between PREPARE and the decision

	// The commit point still holds only the committed record.
	if n, err := Committed(dir); err != nil || n != 1 {
		t.Fatalf("Committed = %d, %v; want 1, nil", n, err)
	}

	// A plain Open rolls the prepared record back...
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := j2.Records(); !j2.Torn() || n != 1 {
		t.Fatalf("Open: torn=%v records=%d, want torn rollback to 1", j2.Torn(), n)
	}
	j2.Close()

	// ...so re-prepare and this time recover via OpenPrepared + commit.
	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Prepare([]uint64{2, 2}); err != nil {
		t.Fatal(err)
	}
	j3.Close()

	j4, err := OpenPrepared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := j4.Pending(); !reflect.DeepEqual(got, []uint64{2, 2}) {
		t.Fatalf("OpenPrepared Pending() = %v, want [2 2]", got)
	}
	if err := j4.CommitPending(); err != nil {
		t.Fatal(err)
	}
	j4.Close()
	if n, err := Committed(dir); err != nil || n != 2 {
		t.Fatalf("after recovery commit: Committed = %d, %v; want 2, nil", n, err)
	}
}

// TestJournalAbortPending: the ABORT decision removes the prepared
// record and the journal accepts a fresh prepare at the same sequence.
func TestJournalAbortPending(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.AbortPending(); err != nil { // no-op with nothing pending
		t.Fatal(err)
	}
	if err := j.Prepare([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := j.AbortPending(); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != nil {
		t.Fatal("Pending() non-nil after abort")
	}
	if c, p := records(t, dir); c != 1 || p != 0 {
		t.Fatalf("%d committed and %d prepared records after abort, want 1 and 0", c, p)
	}
	if err := j.Prepare([]uint64{8}); err != nil {
		t.Fatal(err)
	}
	if err := j.CommitPending(); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenPrepared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if last, n := j2.Records(); n != 2 || last[0] != 8 {
		t.Fatalf("record %v of %d, want [8] of 2", last, n)
	}
	if j2.Pending() != nil {
		t.Fatal("clean journal reports a pending record")
	}
}

// TestJournalOpenPreparedTornTail: a prepared file that is not exactly
// one intact record with the next sequence number (a frame cut
// mid-payload, or a record of another barrier) must be rolled back by
// OpenPrepared just as Open would.
func TestJournalOpenPreparedTornTail(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1})
	stale, err := os.ReadFile(walPath(dir)) // record 0 again: not the next
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{make([]byte, 41), stale} {
		if err := os.WriteFile(prepPath(dir), tail, 0o666); err != nil {
			t.Fatal(err)
		}
		j, err := OpenPrepared(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Torn() {
			t.Error("Torn() = false after the prepared file's rollback")
		}
		if j.Pending() != nil {
			t.Error("a bad prepared file surfaced as a pending record")
		}
		if c, p := records(t, dir); c != 1 || p != 0 {
			t.Errorf("%d committed and %d prepared records after rollback, want 1 and 0", c, p)
		}
		j.Close()
	}
}

// TestJournalCrashAroundRename: the two windows of a commit. A crash
// between the prepared file's fsync and its rename leaves the old record
// committed beside the prepared one; a crash after the rename (before
// the directory's fsync, or after it) leaves the new record alone. Either
// way the directory never holds more than two records, reopens to exactly
// one committed record — the old or the new — and OpenPrepared offers the
// prepared one for its decision only in the first window.
func TestJournalCrashAroundRename(t *testing.T) {
	for _, tc := range []struct {
		window     string
		renamed    bool
		wantLast   uint64
		wantCount  int
		wantOffers bool
	}{
		{"after the prepared fsync", false, 1, 1, true},
		{"after the rename", true, 2, 2, false},
	} {
		for _, prepared := range []bool{false, true} {
			dir := t.TempDir()
			j, err := Create(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]uint64{1}); err != nil {
				t.Fatal(err)
			}
			if err := j.Prepare([]uint64{2}); err != nil {
				t.Fatal(err)
			}
			if tc.renamed {
				if err := os.Rename(prepPath(dir), walPath(dir)); err != nil {
					t.Fatal(err)
				}
			}
			// The crash: the process is gone, the directory is what it is.
			if c, p := records(t, dir); c+p > 2 {
				t.Fatalf("%s: %d records on disk, want at most two", tc.window, c+p)
			}
			open, name := Open, "Open"
			if prepared {
				open, name = OpenPrepared, "OpenPrepared"
			}
			r, err := open(dir)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.window, name, err)
			}
			last, n := r.Records()
			if n != tc.wantCount || last[0] != tc.wantLast {
				t.Errorf("%s, %s: record %v of %d, want [%d] of %d", tc.window, name, last, n, tc.wantLast, tc.wantCount)
			}
			if offers := r.HasPending(); offers != (prepared && tc.wantOffers) {
				t.Errorf("%s, %s: pending = %v", tc.window, name, offers)
			}
			if c, p := records(t, dir); c != 1 || p != btoi(r.HasPending()) {
				t.Errorf("%s, %s: %d committed and %d prepared records after reopening", tc.window, name, c, p)
			}
			if r.HasPending() {
				if err := r.CommitPending(); err != nil {
					t.Fatal(err)
				}
				if last, n := r.Records(); n != 2 || last[0] != 2 {
					t.Errorf("%s, %s: record %v of %d after the re-applied commit, want [2] of 2", tc.window, name, last, n)
				}
			}
			r.Close()
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCommittedEmptyDir: a directory with no journal at all (and a
// nonexistent directory) report 0 committed records with a nil error,
// and so does a journal created and never committed to.
func TestCommittedEmptyDir(t *testing.T) {
	if n, err := Committed(t.TempDir()); n != 0 || err != nil {
		t.Fatalf("empty dir: Committed = %d, %v; want 0, nil", n, err)
	}
	if n, err := Committed(t.TempDir() + "/nope"); n != 0 || err != nil {
		t.Fatalf("missing dir: Committed = %d, %v; want 0, nil", n, err)
	}
	dir := t.TempDir()
	mustCreate(t, dir)
	if n, err := Committed(dir); n != 0 || err != nil {
		t.Fatalf("fresh journal: Committed = %d, %v; want 0, nil", n, err)
	}
}

// TestCommittedTornHead: a committed record that is too short for its
// header, has bad magic, or fails its checksum is a typed *Error from
// Committed, not a count; it names the record once its header does.
func TestCommittedTornHead(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func([]byte) []byte
		record int
	}{
		"short":        {func(h []byte) []byte { return h[:12] }, -1},
		"bad-magic":    {func(h []byte) []byte { h[0] ^= 0xff; return h }, -1},
		"bad-checksum": {func(h []byte) []byte { h[len(h)-1] ^= 0x01; return h }, 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustCreate(t, dir, []uint64{1})
			buf, err := os.ReadFile(walPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath(dir), tc.mutate(buf), 0o666); err != nil {
				t.Fatal(err)
			}
			_, err = Committed(dir)
			var je *Error
			if !errors.As(err, &je) {
				t.Fatalf("got %v, want *journal.Error", err)
			}
			if je.Record != tc.record {
				t.Errorf("error names record %d, want %d", je.Record, tc.record)
			}
		})
	}
}

// TestCommittedHeadPastLog: a committed record whose header promises
// more words than the file holds — a silently truncated file — must
// surface as corruption from Committed, not as a resumable count.
func TestCommittedHeadPastLog(t *testing.T) {
	dir := t.TempDir()
	mustCreate(t, dir, []uint64{1}, []uint64{2})

	fi, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath(dir), fi.Size()-8); err != nil {
		t.Fatal(err)
	}
	_, err = Committed(dir)
	var je *Error
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *journal.Error", err)
	}
}

// TestCommittedDuringCommit: Committed racing in-flight Appends must
// always observe a consistent journal — some count, never an error, never
// going backwards — because a commit is one atomic rename of a record
// fsynced before it.
func TestCommittedDuringCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const appends = 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := Committed(dir)
			if err != nil {
				t.Errorf("Committed during commit: %v", err)
				return
			}
			if n < last || n > appends {
				t.Errorf("Committed went backwards or past the end: %d after %d", n, last)
				return
			}
			last = n
		}
	}()
	for i := 0; i < appends; i++ {
		if err := j.Append([]uint64{uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if n, err := Committed(dir); err != nil || n != appends {
		t.Fatalf("final Committed = %d, %v; want %d, nil", n, err, appends)
	}
}
