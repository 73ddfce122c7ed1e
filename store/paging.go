package store

import (
	"sync/atomic"

	"kvcc/internal/residency"
)

// Paging accounting for mmap'd snapshots. The enumeration layers read a
// mapped graph only by sequential scans and copy out before random
// access (graph.Materialize); the store's part is to release a mapping's
// resident pages when a checkpoint retires it. That never changes what a
// read returns, only what it costs.

// PagingCounters accumulates release activity across one store's
// mappings. Fields are updated atomically.
type PagingCounters struct {
	Releases atomic.Int64 // MADV_DONTNEED releases of retired mappings
}

// PagingStats is the JSON-facing snapshot of a store's paging state:
// counter values, the live mapping's size and page residency, and the
// cost of the last snapshot open (header read + CRC + map).
type PagingStats struct {
	Releases        int64   `json:"releases"`
	MappedBytes     int64   `json:"mapped_bytes"`
	ResidentPages   int     `json:"resident_pages,omitempty"`
	TotalPages      int     `json:"total_pages,omitempty"`
	SnapshotOpenMS  float64 `json:"snapshot_open_ms"`
	RetiredMappings int     `json:"retired_mappings,omitempty"`
}

// MappedBytes returns the size of the snapshot's backing region (mapped
// or heap-loaded).
func (s *Snapshot) MappedBytes() int64 { return int64(len(s.data)) }

// Residency probes how many pages of the mapping are resident. ok is
// false when the platform cannot tell (no mincore, heap fallback).
func (s *Snapshot) Residency() (resident, total int, ok bool) {
	if !mmapSupported || len(s.data) == 0 || !residency.Supported() {
		return 0, 0, false
	}
	r, t, err := residency.Resident(s.data)
	if err != nil {
		return 0, 0, false
	}
	return r, t, true
}

// ReleasePages drops the mapping's resident pages with MADV_DONTNEED.
// The mapping stays valid — a read simply faults the page back from the
// file — so it is safe on a retired snapshot that old readers may still
// hold. Best-effort, no-op off mmap platforms.
func (s *Snapshot) ReleasePages() {
	if !mmapSupported || len(s.data) == 0 {
		return
	}
	if s.counters != nil {
		s.counters.Releases.Add(1)
	}
	madviseDontNeed(s.data)
}
