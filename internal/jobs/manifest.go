package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"embsp/internal/disk"
)

// manifest is the persisted queue state: every job ever submitted plus
// the ID counter. It follows the same durability discipline as the
// superstep journal's commit: written to a file of its own, fsynced,
// renamed over the old one, directory fsynced — a crash at any point leaves
// either the old manifest or the new one, never a torn mix.
type manifest struct {
	Version int    `json:"version"`
	NextID  int    `json:"next_id"`
	Jobs    []*Job `json:"jobs"`
}

const manifestVersion = 1

func manifestPath(root string) string { return filepath.Join(root, "manifest.json") }

// readManifest loads the manifest, returning nil (no error) when none
// exists yet.
func readManifest(root string) (*manifest, error) {
	buf, err := os.ReadFile(manifestPath(root))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("jobs: %s: %w", manifestPath(root), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("jobs: %s: manifest version %d, want %d", manifestPath(root), m.Version, manifestVersion)
	}
	return &m, nil
}

// persistLocked writes the manifest durably. Callers hold s.mu.
func (s *Supervisor) persistLocked() error {
	m := manifest{Version: manifestVersion, NextID: s.nextID}
	for _, id := range s.order {
		m.Jobs = append(m.Jobs, s.jobs[id])
	}
	buf, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return disk.ReplaceFile(manifestPath(s.cfg.Root), buf)
}
