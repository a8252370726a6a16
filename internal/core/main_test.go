package core

import (
	"os"
	"testing"

	"embsp/internal/disk"
)

// canaryWord poisons every reused buffer for the whole test binary: the
// superstep loop's own (bufCanary, stamped as a buffer is handed out)
// and the stores' pooled and spare track buffers (disk.SetPoolCanary,
// stamped as a buffer is given back). Every identity test of this
// package — engines against the reference, faults, parity, resume, the
// cluster core, Table 1 — therefore also proves that no result aliases
// a buffer past its lifetime or depends on a fresh buffer being zero.
const canaryWord = 0xDEADBEEFCAFEF00D

func TestMain(m *testing.M) {
	bufCanary = canaryWord
	disk.SetPoolCanary(canaryWord)
	os.Exit(m.Run())
}
