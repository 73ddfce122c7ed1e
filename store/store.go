package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/hierarchy"
)

// Options tunes Open.
type Options struct {
	// VerifyOnOpen runs the full payload checksum and CSR validation on
	// the snapshot before serving it — O(n+m), so it trades the O(1)
	// startup guarantee for end-to-end certainty. Tests and paranoid
	// operators set it; the default trusts the header checksum plus the
	// atomic-rename write protocol.
	VerifyOnOpen bool
}

// Store is the durability handle for one graph: its snapshot, WAL and
// persisted index inside a single directory. All methods are safe for
// concurrent use; in practice the owning server serializes mutations
// (Append, Checkpoint) on its edit path and only SaveIndex arrives from
// another goroutine.
type Store struct {
	dir string

	mu       sync.Mutex
	snap     *Snapshot // mapping backing the recovered graph (nil if none)
	wal      *wal
	g        *graph.Graph // recovered graph: snapshot's or the replayed compaction
	version  uint64
	hasGraph bool

	replayed      int  // WAL batches applied during Open
	pending       int  // batches in the WAL since the last checkpoint
	truncatedTail bool // Open dropped a torn/corrupt WAL tail
	destroyed     bool

	// retired holds mappings replaced by CompactToStore. They stay open
	// — readers recovered before the swap may still hold their graphs —
	// with resident pages released; Close unmaps them all.
	retired []*Snapshot
	// paging counts page releases and evictions; openMS is the cost of the
	// last OpenSnapshot (header read + CRC + map), the measured price of
	// the O(1) startup claim.
	paging PagingCounters
	openMS float64

	// idemKeys maps each known applied idempotency key to the overlay
	// version its batch produced (see idem.go).
	idemKeys map[string]uint64
}

// Open opens (creating if necessary) the store directory, recovers its
// graph — map the last snapshot, replay the WAL tail — and leaves the
// WAL ready for appends. A directory with no snapshot yet (a store that
// crashed before its first Checkpoint, or a fresh one) opens with no
// graph: Graph reports ok=false and the caller checkpoints an initial
// snapshot.
//
// Recovery tolerates exactly the damage a crash can cause: a leftover
// snapshot temp file (removed), and a torn final WAL record (dropped and
// truncated away). Damage a crash cannot cause — checksum mismatches in
// the snapshot header or in a non-final WAL record — is an error.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-checkpoint leaves snapshot.kvcc.tmp (never renamed, so
	// never visible as the snapshot); clean it and the index temps up.
	os.Remove(filepath.Join(dir, snapshotName+tmpSuffix))
	os.Remove(filepath.Join(dir, idemName+tmpSuffix))
	for _, m := range cohesion.Measures() {
		os.Remove(filepath.Join(dir, indexFileName(m)+tmpSuffix))
	}

	s := &Store{dir: dir}
	snapPath := filepath.Join(dir, snapshotName)
	if _, err := os.Stat(snapPath); err == nil {
		start := time.Now()
		snap, err := OpenSnapshot(snapPath)
		if err != nil {
			return nil, err
		}
		s.openMS = float64(time.Since(start)) / float64(time.Millisecond)
		if opts.VerifyOnOpen {
			if err := snap.Verify(); err != nil {
				snap.Close()
				return nil, err
			}
		}
		snap.counters = &s.paging
		s.snap = snap
		s.g = snap.Graph()
		s.version = snap.Version()
		s.hasGraph = true
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// Seed the idempotency-key set from the retention file before replay:
	// replay then layers on the keys of every WAL record that survived the
	// last checkpoint.
	s.loadIdem()

	walPath := filepath.Join(dir, walName)
	batches, goodSize, err := readWAL(walPath)
	if err != nil {
		s.closeLocked(true)
		return nil, err
	}
	if info, err := os.Stat(walPath); err == nil && info.Size() > goodSize {
		s.truncatedTail = true
	}
	if err := s.replay(batches); err != nil {
		s.closeLocked(true)
		return nil, err
	}
	s.wal, err = openWAL(walPath, goodSize)
	if err != nil {
		s.closeLocked(true)
		return nil, err
	}
	return s, nil
}

// replay applies the clean WAL prefix on top of the snapshot. Records at
// or below the snapshot version were already folded into it by the
// checkpoint that crashed before truncating the log; they are skipped.
func (s *Store) replay(batches []Batch) error {
	var delta *graph.Delta
	for i, b := range batches {
		// Keys are learned from every intact record, including ones the
		// snapshot already covers: a checkpoint that crashed between the
		// snapshot write and the retention write would otherwise forget
		// the keys of the records it folded in.
		s.rememberKey(b.Key, b.NewVersion)
		if b.NewVersion <= s.version {
			continue
		}
		if !s.hasGraph {
			return &corruptError{path: filepath.Join(s.dir, walName),
				msg: fmt.Sprintf("record %d precedes any snapshot", i)}
		}
		if b.PrevVersion != s.version {
			return &corruptError{path: filepath.Join(s.dir, walName),
				msg: fmt.Sprintf("record %d expects version %d, store is at %d", i, b.PrevVersion, s.version)}
		}
		if delta == nil {
			delta = graph.NewDeltaAt(s.g, s.version)
		}
		for _, e := range b.Inserts {
			delta.InsertEdge(e[0], e[1])
		}
		for _, e := range b.Deletes {
			delta.DeleteEdge(e[0], e[1])
		}
		if delta.Version() != b.NewVersion {
			return &corruptError{path: filepath.Join(s.dir, walName),
				msg: fmt.Sprintf("record %d replayed to version %d, log claims %d", i, delta.Version(), b.NewVersion)}
		}
		s.version = b.NewVersion
		s.replayed++
		s.pending++
	}
	if delta != nil {
		s.g = delta.Compact()
	}
	return nil
}

// Graph returns the recovered graph and its overlay version. ok is false
// for a store that has never been checkpointed.
func (s *Store) Graph() (g *graph.Graph, version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g, s.version, s.hasGraph
}

// Replayed reports recovery work done by Open: how many WAL batches were
// applied on top of the snapshot, and whether a torn tail was dropped.
func (s *Store) Replayed() (batches int, tornTail bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed, s.truncatedTail
}

// Pending returns the number of WAL batches accumulated since the last
// checkpoint — the checkpoint policy's input.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// Append durably logs one edit batch: the record is written and fsync'd
// before Append returns, so a batch acknowledged to a client survives
// any crash after this point.
//
// The chain guard refuses a batch whose PrevVersion is not the store's
// current version. That happens when an earlier append failed but the
// caller kept serving (persistence degrades, never blocks): logging the
// out-of-chain batch would plant a gap that recovery must reject, turning
// one transient write failure into a permanently unopenable store. The
// caller heals instead by checkpointing the current snapshot.
func (s *Store) Append(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return fmt.Errorf("store: %s: destroyed", s.dir)
	}
	if b.PrevVersion != s.version {
		return fmt.Errorf("store: %s: batch chains from version %d, store is at %d",
			s.dir, b.PrevVersion, s.version)
	}
	if err := s.wal.append(b); err != nil {
		return err
	}
	s.pending++
	s.version = b.NewVersion
	s.rememberKey(b.Key, b.NewVersion)
	return nil
}

// Checkpoint writes g (the current compacted snapshot at the given
// overlay version) as the new on-disk snapshot and truncates the WAL,
// whose records are now redundant. Crash-ordering: the snapshot lands
// atomically first; a crash before the truncate leaves WAL records whose
// versions the new snapshot already covers, and replay skips those.
//
// The mapping behind any previously recovered graph stays valid — only
// Close releases it — so readers still holding the old graph are safe.
func (s *Store) Checkpoint(g *graph.Graph, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return fmt.Errorf("store: %s: destroyed", s.dir)
	}
	if err := WriteSnapshotStream(filepath.Join(s.dir, snapshotName), GraphStream(g, version)); err != nil {
		return err
	}
	// Retain the keys the truncate below is about to erase from the WAL.
	// Best-effort by design (see idem.go); ordering before the reset keeps
	// the crash window to "retention written, WAL not yet truncated", which
	// replay handles by re-learning keys from the redundant records.
	s.saveIdemLocked()
	if err := s.wal.reset(); err != nil {
		return err
	}
	// The heap graph g replaces whatever the old mapping was backing;
	// release the mapping's resident pages (it stays valid for readers
	// that still hold the previous recovered graph — reads re-fault).
	if s.snap != nil {
		s.snap.ReleasePages()
	}
	s.g = g
	s.version = version
	s.hasGraph = true
	s.pending = 0
	return nil
}

// CompactToStore folds the overlay d straight into a new on-disk
// snapshot and rebases d onto the re-mapped result — a checkpoint that
// never builds the compacted CSR on the heap. Where Compact+Checkpoint
// peaks at roughly two graphs of memory (the old base plus the fresh
// heap CSR), this path streams the merge to disk (O(max degree) writer
// state), maps the file back, and serves the graph from the page cache;
// peak heap cost is the overlay itself, O(delta).
//
// Crash-ordering is identical to Checkpoint: the snapshot lands
// atomically first, then the idempotency keys, then the WAL truncate —
// every intermediate crash state recovers. On any error d is left
// unmodified and the caller can fall back to Compact+Checkpoint.
//
// The previous mapping (if any) is retired, not closed: graphs
// recovered from it may still be serving. Its resident pages are
// released; Close unmaps every retired mapping.
//
// key, when non-empty, is the idempotency key of the edit batch this
// spill makes durable: the WAL record that would have carried it is
// never written, so the key is retained directly.
func (s *Store) CompactToStore(d *graph.Delta, key string) (*graph.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return nil, fmt.Errorf("store: %s: destroyed", s.dir)
	}
	path := filepath.Join(s.dir, snapshotName)
	version := d.Version()
	if err := WriteSnapshotStream(path, DeltaStream(d)); err != nil {
		return nil, err
	}
	start := time.Now()
	snap, err := OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	s.openMS = float64(time.Since(start)) / float64(time.Millisecond)
	snap.counters = &s.paging
	g := snap.Graph()
	if err := d.Rebase(g); err != nil {
		// Impossible unless the stream callbacks disagreed with the
		// overlay's own counts; surface it rather than serve a mismatch.
		snap.Close()
		return nil, err
	}
	s.rememberKey(key, version)
	s.saveIdemLocked()
	if err := s.wal.reset(); err != nil {
		return nil, err
	}
	if s.snap != nil {
		s.snap.ReleasePages()
		s.retired = append(s.retired, s.snap)
	}
	s.snap = snap
	s.g = g
	s.version = version
	s.hasGraph = true
	s.pending = 0
	return g, nil
}

// PagingStats reports the store's page releases, the live
// mapping's size and residency, and the cost of the last snapshot open.
func (s *Store) PagingStats() PagingStats {
	s.mu.Lock()
	snap := s.snap
	retired := len(s.retired)
	openMS := s.openMS
	s.mu.Unlock()
	ps := PagingStats{
		Releases:        s.paging.Releases.Load(),
		SnapshotOpenMS:  openMS,
		RetiredMappings: retired,
	}
	if snap != nil {
		ps.MappedBytes = snap.MappedBytes()
		if r, t, ok := snap.Residency(); ok {
			ps.ResidentPages, ps.TotalPages = r, t
		}
	}
	return ps
}

// SaveIndex persists a finished hierarchy index stamped with the overlay
// version it was built from, into the index file of the tree's measure.
// A later load only uses it if the recovered graph is at exactly that
// version.
func (s *Store) SaveIndex(t *hierarchy.Tree, version uint64, buildMS float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return fmt.Errorf("store: %s: destroyed", s.dir)
	}
	return writeIndex(filepath.Join(s.dir, indexFileName(t.Measure)), t, version, buildMS)
}

// LoadIndex loads the persisted hierarchy index of the given measure if
// one exists and was built from the store's recovered version. ok=false
// with a nil error means "no usable index" (absent or stale); an error
// means the file matched but is damaged.
func (s *Store) LoadIndex(m cohesion.Measure) (t *hierarchy.Tree, buildMS float64, ok bool, err error) {
	s.mu.Lock()
	version := s.version
	s.mu.Unlock()
	return readIndex(filepath.Join(s.dir, indexFileName(m)), version, m)
}

// DropIndex removes the persisted indexes of every measure (if any) —
// called when the graph they describe is replaced wholesale.
func (s *Store) DropIndex() error {
	for _, m := range cohesion.Measures() {
		err := os.Remove(filepath.Join(s.dir, indexFileName(m)))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Destroy removes the store's files and closes the WAL, but deliberately
// does NOT unmap the snapshot: requests already holding the recovered
// graph may still be reading it, and on every supported platform an
// unlinked mapped file stays readable until the mapping is released at
// process exit. Use it when the graph is removed from serving while the
// process lives on.
func (s *Store) Destroy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.destroyed {
		return nil
	}
	s.destroyed = true
	if s.wal != nil {
		s.wal.close()
		s.wal = nil
	}
	return os.RemoveAll(s.dir)
}

// Close releases everything, including the snapshot mapping. Every graph
// recovered from this store becomes invalid; call Close only once the
// owning server has stopped serving.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked(false)
}

func (s *Store) closeLocked(ignoreErr bool) error {
	var first error
	if s.wal != nil {
		if err := s.wal.close(); err != nil && first == nil {
			first = err
		}
		s.wal = nil
	}
	if s.snap != nil {
		if err := s.snap.Close(); err != nil && first == nil {
			first = err
		}
		s.snap = nil
	}
	for _, old := range s.retired {
		if err := old.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.retired = nil
	if ignoreErr {
		return nil
	}
	return first
}
