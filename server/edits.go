package server

import (
	"context"
	"fmt"
	"time"

	"kvcc/graph"
	"kvcc/internal/kcore"
	"kvcc/store"
)

// maxEditBatch bounds one edit request; a client with more edits splits
// them into consecutive batches (each batch is applied atomically).
const maxEditBatch = 65536

// Edits applies a batch of edge insertions and deletions to a registered
// graph. It is the method behind POST /api/v1/graphs/{name}/edits.
//
// The update is version-scoped end to end:
//
//   - the graph's Delta overlay records the effective edits and bumps its
//     version stamp; the compacted snapshot is installed under a fresh
//     generation, so in-flight enumerations of the old snapshot can
//     neither serve nor cache under the new one;
//   - the affected connectivity levels are derived from the core-number
//     diff (a level k can only change if the edit touched the k-core
//     subgraph: every k-VCC lives inside it, so an edit outside changes
//     nothing at that k);
//   - cached results at unaffected k move to the new generation and keep
//     serving without recomputation; an affected kvcc result stays in its
//     cache slot as a stale entry, which seeds the next enumeration at
//     that k so it recomputes only the k-core components the edits
//     touched (affected results of other measures are dropped);
//   - the hierarchy index (which spans every level) is retired, and —
//     when the server builds indexes — a background repair build of the
//     new snapshot is scheduled immediately.
//
// Concurrent Edits calls serialize; queries are never blocked by an edit
// and keep answering from the snapshot current at their start.
func (s *Server) Edits(ctx context.Context, req EditsRequest) (*EditsResponse, error) {
	if len(req.Inserts)+len(req.Deletes) > maxEditBatch {
		return nil, fmt.Errorf("%w: at most %d edits per batch, got %d",
			ErrBadRequest, maxEditBatch, len(req.Inserts)+len(req.Deletes))
	}
	begin := time.Now()
	// Edits are the scarcest cost class: a single permit serializes them
	// with backpressure (waiters queue bounded, then shed) instead of
	// letting an edit storm pile up on editMu unbounded.
	release, err := s.admit(ctx, classEdit, req.Graph)
	if err != nil {
		return nil, err
	}
	defer release()
	s.editMu.Lock()
	defer s.editMu.Unlock()

	entry, err := s.lookup(req.Graph)
	if err != nil {
		return nil, err
	}

	// A keyed batch the server has already applied is answered from the
	// replay table — never applied twice. The check sits under editMu so a
	// retry racing its original observes the stored response, not a
	// half-applied batch.
	if req.IdempotencyKey != "" {
		if replay, ok := s.lookupIdem(req.Graph, req.IdempotencyKey); ok {
			s.adm.countReplay()
			return replay, nil
		}
	}

	// Materialize the graph's overlay on first edit: registration keeps
	// entries overlay-free so read-only graphs never pay the O(n) label
	// index. editMu makes the lazy install race-free — no other registry
	// mutation can interleave. The overlay starts at the entry's current
	// version, not 1: a graph recovered from its durable store continues
	// the version sequence its WAL records, so replay stays exact.
	delta := entry.delta
	if delta == nil {
		delta = graph.NewDeltaAt(entry.g, entry.version)
		s.mu.Lock()
		cur := s.graphs[req.Graph]
		cur.delta = delta
		s.graphs[req.Graph] = cur
		s.mu.Unlock()
		entry.delta = delta
	}

	// Apply the batch to the overlay, remembering the vertex ids of every
	// effective edit (labels are stable, so ids resolved after the fact
	// match the edit).
	var edited [][2]int
	applied := func(lu, lv int64) {
		edited = append(edited, [2]int{delta.IndexOfLabel(lu), delta.IndexOfLabel(lv)})
	}
	insApplied, delApplied := 0, 0
	for _, e := range req.Inserts {
		if delta.InsertEdge(e[0], e[1]) {
			insApplied++
			applied(e[0], e[1])
		}
	}
	for _, e := range req.Deletes {
		if delta.DeleteEdge(e[0], e[1]) {
			delApplied++
			applied(e[0], e[1])
		}
	}

	resp := &EditsResponse{
		Graph:          req.Graph,
		AppliedInserts: insApplied,
		AppliedDeletes: delApplied,
		NoopEdits:      len(req.Inserts) + len(req.Deletes) - insApplied - delApplied,
	}
	if delta.Version() == entry.version {
		// Nothing changed: same version, same generation, caches intact.
		resp.Version = entry.version
		resp.Vertices = entry.g.NumVertices()
		resp.Edges = entry.g.NumEdges()
		resp.IndexRepair = "none"
		resp.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
		if req.IdempotencyKey != "" {
			s.storeIdem(req.Graph, req.IdempotencyKey, resp)
		}
		return resp, nil
	}

	// Materialize the new snapshot and diff core numbers to find the
	// affected connectivity levels.
	oldCores := entry.cores
	if oldCores == nil {
		oldCores = kcore.CoreNumbers(entry.g)
	}

	// When this batch reaches the checkpoint threshold anyway, spill the
	// overlay straight to a new on-disk snapshot and serve the re-mapped
	// result: the compacted CSR never exists on the heap, and the
	// snapshot (fsync'd and renamed before anything becomes visible) is
	// itself the batch's durability point — no WAL record needed. Off
	// that path, compact on the heap and WAL-log the batch as before.
	g2, spilled := s.spillCompact(req.Graph, delta, req.IdempotencyKey)
	if !spilled {
		g2 = delta.Compact()
	}
	newCores := kcore.CoreNumbers(g2)
	aff := affectedLevels(oldCores, newCores, edited)

	// Durability point: the raw batch is fsync'd to the graph's WAL
	// before the new generation becomes visible, so any state a client
	// can observe after this call is recoverable. Replay re-applies the
	// raw lists through the same overlay code, which is deterministic —
	// it must land on exactly delta.Version(). A persistence failure
	// degrades, never blocks: the edit still installs, the response
	// reports Persisted=false, and Stats records the error.
	if spilled {
		resp.Persisted = true
	} else {
		resp.Persisted = s.persistEdits(req.Graph, store.Batch{
			PrevVersion: entry.version,
			NewVersion:  delta.Version(),
			Inserts:     req.Inserts,
			Deletes:     req.Deletes,
			Key:         req.IdempotencyKey,
		}, g2)
	}

	// Install the new snapshot under a fresh generation. Every registry
	// mutation (Edits, AddGraph, RemoveGraph) serializes on editMu, so
	// the entry looked up above is still the installed one.
	s.mu.Lock()
	s.nextGen++
	newEntry := graphEntry{
		g:        g2,
		gen:      s.nextGen,
		version:  delta.Version(),
		modified: time.Now(),
		delta:    delta,
		cores:    newCores,
	}
	s.graphs[req.Graph] = newEntry
	s.mu.Unlock()

	// Version-scoped cache invalidation: unaffected (graph, k) entries
	// move to the new generation; affected kvcc entries stay as stale
	// entries that seed the next (incremental) enumeration at their k.
	kept, invalidated := s.cache.migrate(req.Graph, entry.gen, newEntry.gen, aff.affected)

	// The hierarchy index spans every level, and an effective edit always
	// touches level 1, so the old index is retired unconditionally; with
	// BuildIndex set, the background repair build starts immediately.
	if s.cfg.BuildIndex {
		s.resetIndex(req.Graph, newEntry)
		resp.IndexRepair = "scheduled"
	} else {
		s.retireIndex(req.Graph, newEntry.gen)
		resp.IndexRepair = "dropped"
	}

	// Checkpoint policy: after enough logged batches, fold the WAL into a
	// fresh snapshot. g2 is already the compacted current snapshot, so
	// the checkpoint costs only the sequential file write. A spill
	// already was the checkpoint.
	if !spilled {
		s.maybeCheckpoint(req.Graph, g2, newEntry.version)
	}

	s.statsMu.Lock()
	s.enum.Edits++
	s.statsMu.Unlock()

	resp.Version = newEntry.version
	resp.Vertices = g2.NumVertices()
	resp.Edges = g2.NumEdges()
	resp.AffectedMaxK = aff.maxLevel()
	resp.CacheKept = kept
	resp.CacheInvalidated = invalidated
	resp.ElapsedMS = float64(time.Since(begin)) / float64(time.Millisecond)
	if req.IdempotencyKey != "" {
		s.storeIdem(req.Graph, req.IdempotencyKey, resp)
	}
	return resp, nil
}

// affectedSet is the set of connectivity levels an edit batch may have
// changed, in the two shapes the core-number diff produces: a prefix
// 1..edgeMax (an edited edge inside the new or old k-core subgraph
// affects every level up to the smaller endpoint core number) and spans
// (lo, hi] for vertices whose core number moved (the levels where the
// vertex entered or left the k-core).
type affectedSet struct {
	edgeMax int
	spans   [][2]int
}

// affected reports whether level k may have changed. Unlisted levels are
// guaranteed unchanged: the k-core subgraph at those levels is identical
// before and after the batch, and the k-VCCs of a graph are a function of
// exactly that subgraph.
func (a affectedSet) affected(k int) bool {
	if k <= a.edgeMax {
		return true
	}
	for _, s := range a.spans {
		if k > s[0] && k <= s[1] {
			return true
		}
	}
	return false
}

// maxLevel returns the highest affected level (0 when nothing beyond the
// trivial level could have changed).
func (a affectedSet) maxLevel() int {
	max := a.edgeMax
	for _, s := range a.spans {
		if s[1] > max {
			max = s[1]
		}
	}
	return max
}

// affectedLevels diffs the core numbers of the old and new snapshots and
// combines them with the edited edges' endpoint ids. coreOf treats
// vertices beyond the old snapshot (created by this batch) as core 0.
func affectedLevels(oldCores, newCores []int, edited [][2]int) affectedSet {
	coreOld := func(v int) int {
		if v < len(oldCores) {
			return oldCores[v]
		}
		return 0
	}
	coreNew := func(v int) int {
		if v < len(newCores) {
			return newCores[v]
		}
		return 0
	}
	var a affectedSet
	for _, e := range edited {
		u, v := e[0], e[1]
		if u < 0 || v < 0 {
			continue
		}
		if m := min(coreOld(u), coreOld(v)); m > a.edgeMax {
			a.edgeMax = m
		}
		if m := min(coreNew(u), coreNew(v)); m > a.edgeMax {
			a.edgeMax = m
		}
	}
	for v := 0; v < len(newCores); v++ {
		o, n := coreOld(v), newCores[v]
		if o == n {
			continue
		}
		lo, hi := o, n
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi <= a.edgeMax {
			continue // already covered by the prefix
		}
		a.spans = append(a.spans, [2]int{lo, hi})
		if len(a.spans) > 64 {
			// Degenerate batch touching everything: collapse to one span.
			loAll, hiAll := a.spans[0][0], a.spans[0][1]
			for _, s := range a.spans {
				if s[0] < loAll {
					loAll = s[0]
				}
				if s[1] > hiAll {
					hiAll = s[1]
				}
			}
			a.spans = [][2]int{{loAll, hiAll}}
		}
	}
	return a
}
