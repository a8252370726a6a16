package disk_test

import (
	"embsp/internal/disk"
	"embsp/internal/redundancy"
)

// A parity link runs TestStoreConformance's blank case: Blank is the
// allocator's, promoted through the link.
func init() {
	disk.ConfLinks = append(disk.ConfLinks, disk.ConfLink{Name: "parity", Wrap: func(s disk.Store) disk.Store {
		p, err := redundancy.Wrap(s)
		if err != nil {
			panic(err)
		}
		return p
	}})
}
