package disk

// The in-memory Array's replication hooks operate directly on the
// in-memory tracks. They exist so tests and the cluster runtime's
// replica machinery can treat every store uniformly; neither
// touches model accounting.

// ExportTrack returns a copy of one track's payload without model
// accounting, or nil when the track reads as blank (free, fresh,
// beyond the bump mark, or never written).
func (a *Array) ExportTrack(d, t int) ([]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.checkRaw("ExportTrack", d, t); err != nil {
		return nil, err
	}
	if a.blank(d, t) || t >= len(a.tracks[d]) || a.tracks[d][t] == nil {
		return nil, nil
	}
	return append([]uint64(nil), a.tracks[d][t]...), nil
}

// ImportTrack replaces one track's contents raw with a B-word payload,
// without model accounting — the adoption path of a replica snapshot.
func (a *Array) ImportTrack(d, t int, payload []uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.beginImport(d, t, payload); err != nil {
		return err
	}
	return a.writeSlot(d, t, payload)
}
