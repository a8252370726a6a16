//go:build !linux

package disk

import "os"

// mmapSupported is false on platforms without the Linux mmap/msync
// surface the Mapped store relies on; OpenMapped fails cleanly (see
// MmapSupported).
const mmapSupported = false

func mmapFile(*os.File, int) ([]byte, error) { return nil, errNoMmap() }

func munmapFile([]byte) error { return errNoMmap() }

func msyncFile([]byte) error { return errNoMmap() }
