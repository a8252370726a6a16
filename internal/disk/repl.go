package disk

// Replication support. The cluster runtime ships a node's state to the
// coordinator's replica store at every committed barrier; what it
// needs from the store is (a) the set of tracks whose logical content
// may have changed since the last shipment and (b) raw, side-effect
// free access to track payloads. Both live here, deliberately outside
// the model-accounting surface: none of these methods touch Stats, the
// fault clock, emulated latency or the cache, so a run that exports
// its tracks stays bitwise identical to one that does not.

// ExportTrack reads the committed payload of one track, bypassing all
// model accounting, emulated latency and the write-behind cache. It
// returns nil (no error) when the track reads as blank by metadata —
// released, fresh or beyond the bump mark — and a *CorruptTrackError
// when a track the metadata lists as written has no intact slot. The caller
// must have quiesced the store with Sync first: queued writes that have
// not landed are not visible to the raw read.
func (f *File) ExportTrack(d, t int) ([]uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkRaw("ExportTrack", d, t); err != nil {
		return nil, err
	}
	if f.blank(d, t) {
		return nil, nil
	}
	dst := make([]uint64, f.cfg.B)
	if err := f.pread(f.buf, d, t, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ImportTrack writes one track's B-word payload raw — magic word,
// checksum, payload — bypassing all model accounting and the cache. It
// exists for adopting a replica snapshot into a fresh store; using it
// on a store with queued physical work is a caller bug.
func (f *File) ImportTrack(d, t int, payload []uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.beginImport(d, t, payload); err != nil {
		return err
	}
	err := f.pwrite(f.buf, d, t, payload)
	f.markWritten(d)
	return err
}
