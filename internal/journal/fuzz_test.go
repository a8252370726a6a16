package journal

// Fuzzing the journal decode path: Open reads two files an adversary
// (or a crashed kernel) may have scribbled over — the committed record,
// journal.wal, and a prepared one beside it, journal.prep — so for
// arbitrary bytes of both it must either load the journal or refuse with
// a typed *Error — never panic, and never accept bytes it cannot then
// continue consistently. The seed corpus includes a genuine committed
// record with a prepared one beside it, their torn/flipped/truncated
// mutants, the log of a journal that kept every record, and a record
// whose checksummed sequence word overflows int (the crafted input that
// pins the implausible-sequence guard).

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"embsp/internal/disk"
)

// seedJournal builds a real journal with a committed and a prepared
// record and returns the raw bytes of both files.
func seedJournal(f *testing.F) (wal, prep []byte) {
	f.Helper()
	dir := f.TempDir()
	j, err := Create(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append([]uint64{1, 2, 3, 0xDEADBEEF}); err != nil {
		f.Fatal(err)
	}
	if err := j.Prepare(make([]uint64, 40)); err != nil {
		f.Fatal(err)
	}
	if wal, err = os.ReadFile(walPath(dir)); err != nil {
		f.Fatal(err)
	}
	if prep, err = os.ReadFile(prepPath(dir)); err != nil {
		f.Fatal(err)
	}
	return wal, prep
}

// craftedRecord builds a structurally valid, correctly checksummed frame
// claiming the given sequence number and payload length with no payload
// — the only way to reach the post-checksum validation with hostile
// numbers.
func craftedRecord(seq, n uint64) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, recMagic)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, n)
	return binary.LittleEndian.AppendUint64(buf, disk.Checksum([]uint64{seq, n}))
}

func FuzzJournalDecode(f *testing.F) {
	wal, prep := seedJournal(f)
	f.Add(wal, prep)
	f.Add(wal[:len(wal)-5], prep)                              // committed record cut short
	f.Add(wal, append(bytes.Clone(prep), make([]byte, 64)...)) // prepared record with a tail
	f.Add([]byte{}, []byte{})
	flip := bytes.Clone(wal)
	flip[9] ^= 0xFF // sequence word of the committed record
	f.Add(flip, prep)
	flip = bytes.Clone(wal)
	flip[len(flip)-1] ^= 0x01 // its checksum
	f.Add(flip, prep)
	// A checksummed sequence number that overflows int: its count would
	// be negative.
	f.Add(craftedRecord(1<<63, 0), prep)
	f.Add(append(bytes.Clone(wal), prep...), []byte{}) // a log of every record

	f.Fuzz(func(t *testing.T, wal, prep []byte) {
		// parseRecord is the frame decoder both opens use; it must be total
		// on arbitrary bytes.
		_, _, _ = parseRecord(wal)

		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), wal, 0o666); err != nil {
			t.Fatal(err)
		}
		if len(prep) > 0 {
			if err := os.WriteFile(prepPath(dir), prep, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(dir)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("Open rejected fuzzed bytes with untyped error %T: %v", err, err)
			}
			return
		}
		// Open accepted the bytes: the prepared file is gone and the
		// journal must now behave — the committed record is replaced by an
		// append that reopens cleanly.
		if _, err := os.Stat(prepPath(dir)); !os.IsNotExist(err) {
			t.Fatalf("Open left the prepared file behind: %v", err)
		}
		_, n := j.Records()
		if err := j.Append([]uint64{42, 43}); err != nil {
			t.Fatalf("Append to accepted journal: %v", err)
		}
		j2, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen of accepted journal: %v", err)
		}
		if j2.Torn() {
			t.Error("reopen after a clean Append reports a torn tail")
		}
		last, n2 := j2.Records()
		if n2 != n+1 {
			t.Fatalf("reopen sees %d records, want %d", n2, n+1)
		}
		if !bytes.Equal(u64bytes(last), u64bytes([]uint64{42, 43})) {
			t.Errorf("appended record read back as %v", last)
		}
	})
}

func u64bytes(ws []uint64) []byte {
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}
