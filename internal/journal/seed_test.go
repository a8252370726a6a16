package journal

import (
	"reflect"
	"testing"
)

// TestSeedRoundtrip pins the migration contract: a seeded journal must
// reopen as exactly count committed records — the last carrying the
// checkpoint manifest — with no pending record.
func TestSeedRoundtrip(t *testing.T) {
	dir := t.TempDir()
	last := []uint64{5, 6, 7, 8}
	j, err := Seed(dir, 3, last)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, n := r.Records()
	if n != 3 {
		t.Fatalf("seeded journal reopened with %d records, want 3", n)
	}
	if !reflect.DeepEqual(got, last) {
		t.Fatalf("last record %v, want %v", got, last)
	}
	if r.HasPending() {
		t.Fatal("seeded journal reopened with a pending record")
	}
	if r.Torn() {
		t.Fatal("seeded journal reopened torn")
	}
}

// TestSeedThenTwoPhase checks a seeded journal keeps participating in
// the 2PC protocol: prepare, commit, reopen, counts line up.
func TestSeedThenTwoPhase(t *testing.T) {
	dir := t.TempDir()
	j, err := Seed(dir, 2, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Prepare([]uint64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if !j.HasPending() {
		t.Fatal("prepared record not pending")
	}
	if err := j.CommitPending(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	last, n := r.Records()
	if n != 3 {
		t.Fatalf("journal has %d records after seed+commit, want 3", n)
	}
	if !reflect.DeepEqual(last, []uint64{2, 3}) {
		t.Fatalf("committed record %v, want [2 3]", last)
	}
}

func TestSeedRejectsEmpty(t *testing.T) {
	if _, err := Seed(t.TempDir(), 0, nil); err == nil {
		t.Fatal("Seed with zero records succeeded")
	}
}
