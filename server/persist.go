package server

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/store"
)

// Persistence glue: with Config.DataDir set, every registered graph owns a
// store.Store (snapshot + WAL + persisted index) in a subdirectory named by
// the URL-escaped graph name. The serving path stays in charge — stores are
// written through, never read during normal operation — and recovery at
// Open rebuilds the registry from disk so a restarted daemon serves the
// exact graphs (and versions) it acknowledged before going down.
//
// Durability contract: an edit batch is fsync'd to the WAL before the new
// generation is installed, so any response a client saw is recoverable;
// AddGraph checkpoints the initial snapshot before returning. Persistence
// errors after that never fail serving — they are recorded in PersistStats
// (and reflected in EditsResponse.Persisted) for the operator.

// Open is New plus recovery: with cfg.DataDir set it opens every graph
// store under the directory, registers the recovered graphs (snapshot plus
// replayed WAL tail) at their pre-crash versions, and loads any persisted
// hierarchy index that still matches. Crash damage — a torn WAL tail, a
// leftover temp file — is repaired silently; damage a crash cannot explain
// (checksum mismatches in a snapshot, WAL records that do not chain) fails
// Open, because serving a silently wrong graph is worse than not starting.
//
// With an empty DataDir, Open is exactly New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if !s.persistEnabled() {
		return s, nil
	}
	s.persist.Enabled = true
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	dirents, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		name, err := url.PathUnescape(de.Name())
		if err != nil {
			s.notePersistError("recover "+de.Name(), err)
			continue
		}
		st, err := store.Open(filepath.Join(s.cfg.DataDir, de.Name()), s.storeOptions())
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: recover %q: %w", name, err)
		}
		s.storeMu.Lock()
		s.stores[name] = st
		s.storeMu.Unlock()

		g, version, ok := st.Graph()
		if !ok {
			// A store that crashed before its first checkpoint has no graph
			// to serve; keep the directory so a re-registration reuses it.
			continue
		}
		s.mu.Lock()
		s.nextGen++
		entry := graphEntry{g: g, gen: s.nextGen, version: version, modified: time.Now()}
		s.graphs[name] = entry
		s.mu.Unlock()

		replayed, torn := st.Replayed()
		s.storeMu.Lock()
		s.persist.RecoveredGraphs++
		s.persist.ReplayedBatches += replayed
		if torn {
			s.persist.TornTails++
		}
		s.storeMu.Unlock()

		// Re-arm replay protection: every idempotency key the store knows
		// was applied (from the WAL and the retention file) seeds the
		// graph's replay table with a minimal response — version and
		// Replayed only, since the original edit counts died with the old
		// process. A retry of a pre-crash batch then replays instead of
		// re-applying on top of state that already includes it.
		for key, ver := range st.IdempotencyKeys() {
			s.storeIdem(name, key, &EditsResponse{Graph: name, Version: ver})
		}

		s.recoverIndex(name, entry, st)
	}
	return s, nil
}

// Close stops background index builds (waiting for them, and for their
// index saves, to drain) and releases every store, including the
// snapshot mappings recovered graphs are served from. Call it only once
// the server has stopped serving: any request still holding a recovered
// graph loses its memory, and a request starting a new build while Close
// waits races it. A server without persistence has nothing to release
// beyond the index goroutines.
func (s *Server) Close() error {
	s.indexMu.Lock()
	for _, ix := range s.indexes {
		ix.cancel()
	}
	s.indexes = make(map[indexKey]*graphIndex)
	s.indexMu.Unlock()
	s.indexWG.Wait()

	s.storeMu.Lock()
	stores := s.stores
	s.stores = make(map[string]*store.Store)
	s.storeMu.Unlock()
	var first error
	for _, st := range stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Server) persistEnabled() bool { return s.cfg.DataDir != "" }

// storeOptions is the store configuration every graph store opens with.
func (s *Server) storeOptions() store.Options {
	return store.Options{PagingPolicy: s.cfg.PagingPolicy}
}

// graphDir maps a graph name onto its store directory. Escaping makes any
// name filesystem-safe and the mapping invertible for recovery.
func (s *Server) graphDir(name string) string {
	return filepath.Join(s.cfg.DataDir, url.PathEscape(name))
}

// storeFor returns the named graph's store, opening (creating) it on first
// use. A nil return means persistence is off or the store is unusable (the
// error is recorded).
func (s *Server) storeFor(name string) *store.Store {
	if !s.persistEnabled() {
		return nil
	}
	s.storeMu.Lock()
	st := s.stores[name]
	s.storeMu.Unlock()
	if st != nil {
		return st
	}
	st, err := store.Open(s.graphDir(name), s.storeOptions())
	if err != nil {
		s.notePersistError("open store for "+name, err)
		return nil
	}
	s.storeMu.Lock()
	s.stores[name] = st
	s.storeMu.Unlock()
	return st
}

// persistNewGraph checkpoints a freshly registered graph as its store's
// initial snapshot and discards any persisted index of the graph it
// replaced. Runs under editMu (from AddGraph), so it cannot interleave
// with an edit batch's Append on the same store.
func (s *Server) persistNewGraph(name string, g *graph.Graph) {
	st := s.storeFor(name)
	if st == nil {
		return
	}
	if err := st.DropIndex(); err != nil {
		s.notePersistError("drop index for "+name, err)
	}
	if err := st.Checkpoint(g, 1); err != nil {
		s.notePersistError("checkpoint "+name, err)
		return
	}
	s.storeMu.Lock()
	s.persist.Checkpoints++
	s.storeMu.Unlock()
}

// persistEdits durably logs one edit batch, reporting whether the batch is
// on disk. Called before the new generation is installed: a batch the
// client will see acknowledged must already be recoverable.
//
// A failed WAL append does not immediately give up on durability: the
// post-batch snapshot g is checkpointed instead, which both recovers this
// batch's durability and re-syncs the store's version chain so the next
// append is acceptable again (store.Append refuses out-of-chain batches).
// Only when the checkpoint also fails is the batch reported unpersisted.
func (s *Server) persistEdits(name string, b store.Batch, g *graph.Graph) bool {
	st := s.storeFor(name)
	if st == nil {
		return false
	}
	if err := st.Append(b); err != nil {
		s.notePersistError("wal append for "+name, err)
		if cerr := st.Checkpoint(g, b.NewVersion); cerr != nil {
			s.notePersistError("recovery checkpoint for "+name, cerr)
			return false
		}
		s.storeMu.Lock()
		s.persist.Checkpoints++
		s.storeMu.Unlock()
		return true
	}
	s.storeMu.Lock()
	s.persist.WALAppends++
	s.storeMu.Unlock()
	return true
}

// spillCompact implements the zero-heap checkpoint path of Edits: when
// this batch will hit the checkpoint threshold anyway, the overlay is
// folded straight into a new snapshot file (store.CompactToStore) and
// the re-mapped graph comes back as the next serving snapshot — the
// compacted CSR never exists on the heap, and the WAL record for the
// batch is superseded by the snapshot itself. Returns (nil, false) when
// the threshold is not reached or the spill failed; the caller then
// compacts on the heap and logs the batch as usual.
func (s *Server) spillCompact(name string, delta *graph.Delta, key string) (*graph.Graph, bool) {
	if !s.persistEnabled() || s.cfg.CheckpointEvery < 0 {
		return nil, false
	}
	st := s.storeFor(name)
	if st == nil || st.Pending()+1 < s.cfg.CheckpointEvery {
		return nil, false
	}
	g, err := st.CompactToStore(delta, key)
	if err != nil {
		s.notePersistError("spill compact for "+name, err)
		return nil, false
	}
	s.storeMu.Lock()
	s.persist.Checkpoints++
	s.persist.SpillCompactions++
	s.storeMu.Unlock()
	return g, true
}

// maybeCheckpoint folds the WAL into a fresh snapshot once enough batches
// accumulated. g is the already-compacted current snapshot, so the only
// extra cost is the sequential write.
func (s *Server) maybeCheckpoint(name string, g *graph.Graph, version uint64) {
	if !s.persistEnabled() || s.cfg.CheckpointEvery < 0 {
		return
	}
	st := s.storeFor(name)
	if st == nil || st.Pending() < s.cfg.CheckpointEvery {
		return
	}
	if err := st.Checkpoint(g, version); err != nil {
		s.notePersistError("checkpoint "+name, err)
		return
	}
	s.storeMu.Lock()
	s.persist.Checkpoints++
	s.storeMu.Unlock()
}

// dropStore removes a removed graph's on-disk state. The snapshot mapping
// (if any) deliberately stays alive — in-flight requests may still read
// the recovered graph — and is released at process exit.
func (s *Server) dropStore(name string) {
	if !s.persistEnabled() {
		return
	}
	s.storeMu.Lock()
	st := s.stores[name]
	delete(s.stores, name)
	s.storeMu.Unlock()
	if st == nil {
		return
	}
	if err := st.Destroy(); err != nil {
		s.notePersistError("destroy store for "+name, err)
	}
}

// recoverIndex installs the persisted hierarchy indexes (one per measure)
// for a just-recovered graph, for each measure whose file exists, matches
// the recovered version exactly, and was built with the same depth cap
// the server would use now. Measures the disk could not supply fall back
// to the configured background build via resetIndex, which skips the
// measures already installed at this generation.
func (s *Server) recoverIndex(name string, e graphEntry, st *store.Store) {
	for _, m := range cohesion.Measures() {
		tree, buildMS, ok, err := st.LoadIndex(m)
		if err != nil {
			s.notePersistError("index load for "+name, err)
			continue
		}
		if !ok || tree.BuiltMaxK != s.cfg.IndexMaxK {
			continue
		}
		s.installReadyIndex(name, e, tree, buildMS)
		s.storeMu.Lock()
		s.persist.IndexLoads++
		s.storeMu.Unlock()
	}
	if s.cfg.BuildIndex {
		s.resetIndex(name, e)
	}
}

// persistIndex saves a finished index build if its graph generation is
// still the installed one. The saved file is stamped with the overlay
// version, so a save racing a concurrent edit is harmless: recovery only
// loads an index whose stamp equals the recovered version.
func (s *Server) persistIndex(ix *graphIndex) {
	if !s.persistEnabled() || ix.err != nil || ix.tree == nil {
		return
	}
	s.mu.Lock()
	entry, ok := s.graphs[ix.graph]
	s.mu.Unlock()
	if !ok || entry.gen != ix.gen {
		return
	}
	s.storeMu.Lock()
	st := s.stores[ix.graph]
	if st == nil {
		s.persist.IndexSaveSkips++
		s.storeMu.Unlock()
		return
	}
	s.storeMu.Unlock()
	if err := st.SaveIndex(ix.tree, entry.version, ix.buildMS); err != nil {
		s.notePersistError("index save for "+ix.graph, err)
		return
	}
	s.storeMu.Lock()
	s.persist.IndexSaves++
	s.storeMu.Unlock()
}

// notePersistError records a non-fatal persistence failure for Stats.
func (s *Server) notePersistError(op string, err error) {
	s.storeMu.Lock()
	s.persist.Errors++
	s.persist.LastError = op + ": " + err.Error()
	s.storeMu.Unlock()
}

// persistStats snapshots the persistence counters (nil when disabled).
func (s *Server) persistStats() *PersistStats {
	if !s.persistEnabled() {
		return nil
	}
	s.storeMu.Lock()
	ps := s.persist
	ps.Graphs = len(s.stores)
	s.storeMu.Unlock()
	return &ps
}

// pagingStats rolls the per-store paging figures up into one server-wide
// view (nil when persistence is disabled): counters and sizes sum,
// SnapshotOpenMS takes the slowest last open.
func (s *Server) pagingStats() *PagingStats {
	if !s.persistEnabled() {
		return nil
	}
	s.storeMu.Lock()
	stores := make([]*store.Store, 0, len(s.stores))
	for _, st := range s.stores {
		stores = append(stores, st)
	}
	s.storeMu.Unlock()
	agg := &PagingStats{Policy: s.cfg.PagingPolicy.String()}
	for _, st := range stores {
		ps := st.PagingStats()
		agg.SequentialHints += ps.SequentialHints
		agg.WillNeedHints += ps.WillNeedHints
		agg.Releases += ps.Releases
		agg.Evictions += ps.Evictions
		agg.MappedBytes += ps.MappedBytes
		agg.ResidentPages += ps.ResidentPages
		agg.TotalPages += ps.TotalPages
		agg.RetiredMappings += ps.RetiredMappings
		if ps.SnapshotOpenMS > agg.SnapshotOpenMS {
			agg.SnapshotOpenMS = ps.SnapshotOpenMS
		}
	}
	return agg
}
