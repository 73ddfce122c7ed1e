package server

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kvcc/internal/difftest"
)

// persistCfg is the durable baseline: a data dir, no background index
// builds (tests that want them opt in), checkpointing far enough out that
// edit batches stay in the WAL and recovery exercises replay.
func persistCfg(t *testing.T) Config {
	t.Helper()
	return Config{DataDir: t.TempDir(), CheckpointEvery: 1024}
}

// enumerateJSON captures one enumerate response with its wall-clock
// field normalized away; everything else — components, stats counters,
// serving flags — is deterministic and must survive a restart bytewise.
func enumerateJSON(t *testing.T, s *Server, graphName string, k int) []byte {
	t.Helper()
	resp, err := s.Enumerate(context.Background(), EnumerateRequest{Graph: graphName, K: k})
	if err != nil {
		t.Fatalf("enumerate %s k=%d: %v", graphName, k, err)
	}
	resp.ElapsedMS = 0
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// hierarchyJSON captures one hierarchy response with build timings
// normalized away.
func hierarchyJSON(t *testing.T, s *Server, graphName string) []byte {
	t.Helper()
	resp, err := s.Hierarchy(context.Background(), HierarchyRequest{Graph: graphName, IncludeComponents: true})
	if err != nil {
		t.Fatalf("hierarchy %s: %v", graphName, err)
	}
	resp.BuildMS = 0
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryByteIdenticalOverCorpus is the headline guarantee: for
// every corpus graph, register + edit + kill (no shutdown), and the
// recovered server must produce byte-identical enumerate responses
// without ever seeing the original input. Hierarchy is deliberately not
// called here — it would build and persist an index whose asynchronous
// save lands or not depending on timing; index recovery gets its own
// deterministic test below.
func TestRecoveryByteIdenticalOverCorpus(t *testing.T) {
	for _, tc := range difftest.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			cfg := persistCfg(t)
			a, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			a.AddGraph(tc.Name, tc.G)
			// One effective batch so recovery includes WAL replay, not
			// just the registration snapshot.
			edit, err := a.Edits(context.Background(), EditsRequest{
				Graph:   tc.Name,
				Inserts: [][2]int64{{1 << 40, 1<<40 + 1}, {1<<40 + 1, 1<<40 + 2}, {1 << 40, 1<<40 + 2}},
			})
			if err != nil {
				t.Fatalf("edits: %v", err)
			}
			if !edit.Persisted {
				t.Fatal("edit batch was not durably logged")
			}

			maxK := tc.MaxK
			if maxK > 4 {
				maxK = 4
			}
			before := make(map[int][]byte)
			for k := 2; k <= maxK; k++ {
				before[k] = enumerateJSON(t, a, tc.Name, k)
			}
			// Crash: no Close. Everything the client saw acknowledged is
			// already fsync'd.

			b, err := Open(cfg)
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer b.Close()
			infos := b.Graphs()
			if len(infos) != 1 || infos[0].Name != tc.Name || infos[0].Version != edit.Version {
				t.Fatalf("recovered %+v, want %q at version %d", infos, tc.Name, edit.Version)
			}
			ps := b.Stats().Persistence
			if ps == nil || ps.RecoveredGraphs != 1 || ps.ReplayedBatches != 1 {
				t.Fatalf("persistence stats after recovery: %+v", ps)
			}
			for k := 2; k <= maxK; k++ {
				if got := enumerateJSON(t, b, tc.Name, k); !bytes.Equal(got, before[k]) {
					t.Errorf("k=%d: recovered response differs\nbefore: %s\nafter:  %s", k, before[k], got)
				}
			}
		})
	}
}

// TestRecoveryTornWALTail appends garbage (a partial record) to a graph's
// WAL and recovers: the tail is dropped and reported, the clean prefix
// replays, serving is unaffected.
func TestRecoveryTornWALTail(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	edit, err := a.Edits(context.Background(), EditsRequest{
		Graph:   "fig2",
		Inserts: [][2]int64{{100, 101}, {101, 102}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := enumerateJSON(t, a, "fig2", 3)

	walPath := filepath.Join(cfg.DataDir, "fig2", "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("KVWA torn mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer b.Close()
	ps := b.Stats().Persistence
	if ps.TornTails != 1 || ps.ReplayedBatches != 1 {
		t.Fatalf("persistence stats: %+v, want one torn tail and one replayed batch", ps)
	}
	if b.Graphs()[0].Version != edit.Version {
		t.Fatalf("recovered version %d, want %d", b.Graphs()[0].Version, edit.Version)
	}
	if got := enumerateJSON(t, b, "fig2", 3); !bytes.Equal(got, before) {
		t.Fatal("recovered response differs after torn-tail repair")
	}
}

// TestRecoveryCorruptSnapshotFails: a flipped byte in the snapshot header
// is damage a crash cannot cause, and recovery must refuse to serve it.
func TestRecoveryCorruptSnapshotFails(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	a.Close()

	snapPath := filepath.Join(cfg.DataDir, "fig2", "snapshot.kvcc")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[17] ^= 0xff // inside the vertex-count field, breaking the header CRC
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("Open served a snapshot with a corrupt header")
	}
}

// TestRecoveryContinuesVersionSequence: edits applied after recovery must
// chain onto the recovered version (not restart at 1), both in responses
// and in the durable log — proven by a second recovery.
func TestRecoveryContinuesVersionSequence(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	e1, err := a.Edits(context.Background(), EditsRequest{Graph: "fig2", Inserts: [][2]int64{{200, 201}}})
	if err != nil {
		t.Fatal(err)
	}

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.Edits(context.Background(), EditsRequest{Graph: "fig2", Inserts: [][2]int64{{201, 202}}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version <= e1.Version {
		t.Fatalf("post-recovery edit produced version %d, want > %d", e2.Version, e1.Version)
	}

	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Graphs()[0].Version; got != e2.Version {
		t.Fatalf("second recovery at version %d, want %d", got, e2.Version)
	}
	if ps := c.Stats().Persistence; ps.ReplayedBatches != 2 {
		t.Fatalf("second recovery replayed %d batches, want 2", ps.ReplayedBatches)
	}
}

// TestCheckpointBoundsReplay: once CheckpointEvery batches accumulate,
// the WAL folds into the snapshot and the next recovery replays nothing.
func TestCheckpointBoundsReplay(t *testing.T) {
	cfg := persistCfg(t)
	cfg.CheckpointEvery = 2
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	var version uint64
	for i := int64(0); i < 2; i++ {
		e, err := a.Edits(context.Background(), EditsRequest{
			Graph:   "fig2",
			Inserts: [][2]int64{{300 + i, 301 + i}},
		})
		if err != nil {
			t.Fatal(err)
		}
		version = e.Version
	}
	if ps := a.Stats().Persistence; ps.Checkpoints != 2 { // registration + policy
		t.Fatalf("checkpoints = %d, want 2", ps.Checkpoints)
	}

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ps := b.Stats().Persistence
	if ps.ReplayedBatches != 0 {
		t.Fatalf("recovery replayed %d batches past a checkpoint", ps.ReplayedBatches)
	}
	if got := b.Graphs()[0].Version; got != version {
		t.Fatalf("recovered version %d, want %d", got, version)
	}
}

// TestPersistedIndexRecovery: a finished background index build is saved,
// and the next startup serves index-backed queries immediately — no
// rebuild, no enumeration.
func TestPersistedIndexRecovery(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	// Wait for the build to finish AND for the (asynchronous, post-ready)
	// save to land.
	if _, err := a.Hierarchy(context.Background(), HierarchyRequest{Graph: "fig2"}); err != nil {
		t.Fatal(err)
	}
	waitIndexSave(t, a)
	// Both sides of the comparison are index-served: A's query hits the
	// tree it just built, B's hits the tree it loaded from disk.
	want := enumerateJSON(t, a, "fig2", 3)
	wantHier := hierarchyJSON(t, a, "fig2")

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ps := b.Stats().Persistence; ps.IndexLoads != 1 {
		t.Fatalf("index loads = %d, want 1", ps.IndexLoads)
	}
	resp, err := b.Enumerate(context.Background(), EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IndexServed {
		t.Fatal("recovered index did not serve the query")
	}
	if stats := b.Stats(); stats.Enumerations.Started != 0 {
		t.Fatalf("recovery ran %d enumerations despite a loaded index", stats.Enumerations.Started)
	}
	if got := enumerateJSON(t, b, "fig2", 3); !bytes.Equal(got, want) {
		t.Fatal("index-served recovered response differs")
	}
	if got := hierarchyJSON(t, b, "fig2"); !bytes.Equal(got, wantHier) {
		t.Fatal("recovered hierarchy response differs")
	}
}

// waitIndexSave blocks until the server has durably saved at least one
// index. The save runs asynchronously after the build signals ready, so
// tests that crash-and-recover must wait for it explicitly.
func waitIndexSave(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Persistence.IndexSaves == 0 {
		if time.Now().After(deadline) {
			t.Fatal("index save never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStaleIndexIgnored: an index persisted at one version must not serve
// a graph recovered at another (WAL records past the save), nor one built
// with a different depth cap.
func TestStaleIndexIgnored(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// a stays live while b recovers (the crash); closing it last drains
	// its repair build, whose save must not land after the test returns.
	defer a.Close()
	a.AddGraph("fig2", twoCliques())
	if _, err := a.Hierarchy(context.Background(), HierarchyRequest{Graph: "fig2"}); err != nil {
		t.Fatal(err)
	}
	waitIndexSave(t, a)
	// Move the graph past the saved index's version stamp (a triangle of
	// new vertices, so the change is visible at k=2), then crash. The
	// repair build's own save may or may not land first — the invariant
	// is that recovery never installs an index stamped with the wrong
	// version.
	edit, err := a.Edits(context.Background(), EditsRequest{
		Graph:   "fig2",
		Inserts: [][2]int64{{400, 401}, {401, 402}, {400, 402}},
	})
	if err != nil {
		t.Fatal(err)
	}

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Graphs()[0].Version; got != edit.Version {
		t.Fatalf("recovered version %d, want %d", got, edit.Version)
	}
	// A query touching the new vertices proves the served state includes
	// the edit, whichever way the save/crash race went.
	resp, err := b.ComponentsContaining(context.Background(), ContainingRequest{Graph: "fig2", K: 2, Vertex: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Components) != 1 {
		t.Fatalf("vertex 400 in %d 2-VCCs after recovery, want 1", len(resp.Components))
	}
}

// TestIndexDepthCapMismatchIgnored: an index saved with one IndexMaxK is
// not loaded by a server configured with another.
func TestIndexDepthCapMismatchIgnored(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	cfg.IndexMaxK = 0
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	if _, err := a.Hierarchy(context.Background(), HierarchyRequest{Graph: "fig2"}); err != nil {
		t.Fatal(err)
	}
	waitIndexSave(t, a)

	cfg2 := cfg
	cfg2.BuildIndex = false
	cfg2.IndexMaxK = 2
	b, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ps := b.Stats().Persistence; ps.IndexLoads != 0 {
		t.Fatalf("index with BuiltMaxK=0 loaded into an IndexMaxK=2 server (%d loads)", ps.IndexLoads)
	}
}

// TestIndexSaveSkipCounted: an index build whose graph has no usable
// store cannot be saved, and the skip is counted rather than silent.
func TestIndexSaveSkipCounted(t *testing.T) {
	cfg := persistCfg(t)
	cfg.BuildIndex = true
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A plain file where the graph's store directory belongs makes the
	// store fail to open.
	if err := os.WriteFile(filepath.Join(cfg.DataDir, "fig2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s.AddGraph("fig2", twoCliques())
	if _, err := s.Hierarchy(context.Background(), HierarchyRequest{Graph: "fig2"}); err != nil {
		t.Fatal(err)
	}
	// Close waits for the build's save attempt.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ps := s.Stats().Persistence
	if ps.IndexSaveSkips != 1 || ps.IndexSaves != 0 {
		t.Fatalf("index saves = %d, skips = %d; want 0 saves, 1 skip", ps.IndexSaves, ps.IndexSaveSkips)
	}
}

// TestRemoveGraphDestroysStore: removal deletes the on-disk state, so the
// graph stays gone across a restart.
func TestRemoveGraphDestroysStore(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	if !a.RemoveGraph("fig2") {
		t.Fatal("RemoveGraph reported missing graph")
	}
	if _, err := os.Stat(filepath.Join(cfg.DataDir, "fig2")); !os.IsNotExist(err) {
		t.Fatal("store directory survived RemoveGraph")
	}

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := len(b.Graphs()); got != 0 {
		t.Fatalf("removed graph resurrected: %d graphs recovered", got)
	}
}
