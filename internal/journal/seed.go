package journal

// Seed creates a journal in dir whose last committed record, the
// count-th, carries last. It exists for node migration in the cluster
// runtime: a restored node's durable state is entirely described by its
// latest checkpoint manifest, but the rejoin handshake reconciles on the
// committed record *count*, so the seeded journal must agree with the
// coordinator's. Everything is fsynced before Seed returns; reopening
// with Open or OpenPrepared yields exactly count committed records and
// no pending record.
func Seed(dir string, count int, last []uint64) (*Journal, error) {
	if count < 1 {
		return nil, &Error{Path: walPath(dir), Record: -1, Reason: "seed with no records"}
	}
	j, err := Create(dir)
	if err != nil {
		return nil, err
	}
	j.count = count - 1
	if err := j.Append(last); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}
