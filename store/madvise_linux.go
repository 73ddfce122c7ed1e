package store

import "syscall"

// madviseDontNeed drops a mapping's resident pages. Best-effort: the
// error is discarded, since a release the kernel refuses only costs
// memory, never correctness. The standard syscall package wraps madvise
// only on linux; elsewhere the release is a no-op.
func madviseDontNeed(b []byte) {
	if len(b) > 0 {
		syscall.Madvise(b, syscall.MADV_DONTNEED)
	}
}
