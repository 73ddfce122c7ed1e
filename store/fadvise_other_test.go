//go:build !linux

package store

import "os"

// dropFileCache is linux-only; elsewhere evict falls back to the
// madvise release alone (pages may re-fault minor instead of major).
func dropFileCache(f *os.File) error { return nil }
