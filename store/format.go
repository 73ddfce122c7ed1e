package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// On-disk layout constants. Every multi-byte field is little-endian —
// the byte order of every platform the serving fleet runs on — so the
// mmap'd arrays can be adopted without translation; big-endian hosts
// fall back to a decoding copy (see aliasable).
const (
	snapshotMagic  = "KVCCSNP1"
	indexMagic     = "KVCCIDX1"
	formatVersion  = 1
	snapshotHeader = 64         // bytes; keeps the payload 8-aligned for aliasing
	walRecordMagic = 0x4b565741 // "KVWA"
	walHeader      = 16         // magic u32 + payload len u32 + payload crc64
)

// File names inside one store directory. Each cohesion measure persists
// its hierarchy index in its own file; "index.kvcc" predates the measure
// abstraction, which is why the k-VCC index keeps that name.
const (
	snapshotName   = "snapshot.kvcc"
	walName        = "wal.log"
	indexName      = "index.kvcc"
	indexNameKECC  = "index.kecc"
	indexNameKCore = "index.kcore"
	idemName       = "idem.keys"
	tmpSuffix      = ".tmp"
)

// crcTable is the CRC64-ECMA table shared by every checksummed region.
var crcTable = crc64.MakeTable(crc64.ECMA)

// aliasable reports whether mmap'd little-endian int64 arrays can be
// reinterpreted as []int / []int64 in place: the host must be 64-bit and
// little-endian. Anywhere else the loader copies through a decode.
var aliasable = strconv.IntSize == 64 && hostLittleEndian()

func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// aliasInts reinterprets an 8-aligned little-endian byte region as a
// []int without copying. Callers have checked aliasable and the length.
func aliasInts(b []byte, n int) []int {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
}

// aliasInt64s is aliasInts for the label table.
func aliasInt64s(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
}

// decodeInts copies a little-endian int64 region into a fresh []int —
// the portable path for hosts that cannot alias.
func decodeInts(b []byte, n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

func decodeInt64s(b []byte, n int) []int64 {
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// atomicReplace makes tmp become path durably: fsync the written file,
// rename over the destination, fsync the directory so the rename itself
// survives a crash. f is the still-open tmp file; atomicReplace syncs and
// closes it.
func atomicReplace(f *os.File, tmp, path string) error {
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms cannot sync directories; that is a durability gap, not a
// correctness one, so the error is only surfaced where it is real.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		// EINVAL: the filesystem cannot fsync a directory handle — a
		// durability gap on exotic mounts, not a correctness failure.
		return err
	}
	return nil
}

// corruptError tags unrecoverable format damage apart from plain IO
// errors, so callers can distinguish "this file is bad" from "the disk
// hiccuped".
type corruptError struct {
	path string
	msg  string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("store: %s: corrupt: %s", e.path, e.msg)
}

// IsCorrupt reports whether err describes on-disk corruption (bad magic,
// checksum mismatch, impossible sizes) rather than an IO failure.
func IsCorrupt(err error) bool {
	for err != nil {
		if _, ok := err.(*corruptError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
