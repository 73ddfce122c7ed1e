package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"hash/crc64"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kvcc/graph"
	"kvcc/hierarchy"
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
// a graph recovered at another (WAL records past the save).
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

// TestIndexDepthCapMismatchIgnored: an index file holding a tree cut off
// at a depth cap (as builds with a cap wrote them) answers no level past
// the cap, so recovery must not serve it: the server rebuilds the full
// tree and saves it over the file, and the next recovery loads that.
func TestIndexDepthCapMismatchIgnored(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	full := hierarchyJSON(t, a, "fig2")
	waitIndexSave(t, a)
	path := filepath.Join(a.graphDir("fig2"), "index.kvcc")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	truncateIndexFile(t, path, 2)

	cfg.BuildIndex = true
	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ps := b.Stats().Persistence; ps.IndexLoads != 0 {
		t.Fatalf("index truncated at k=2 loaded (%d loads)", ps.IndexLoads)
	}
	if got := hierarchyJSON(t, b, "fig2"); !bytes.Equal(got, full) {
		t.Fatalf("hierarchy after recovery:\n%s\nwant the full tree:\n%s", got, full)
	}
	waitIndexSave(t, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.BuildIndex = false
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ps := c.Stats().Persistence; ps.IndexLoads != 1 {
		t.Fatalf("rebuilt index not loaded (%d loads)", ps.IndexLoads)
	}
	if got := hierarchyJSON(t, c, "fig2"); !bytes.Equal(got, full) {
		t.Fatalf("hierarchy from the rebuilt file:\n%s\nwant:\n%s", got, full)
	}
}

// persistedIndex mirrors the store's gob image of one hierarchy index.
// Gob matches fields by name, so a test can decode and re-encode the
// file without the store's unexported types.
type persistedIndex struct {
	BuiltMaxK   int
	BuildMS     float64
	Stats       hierarchy.Stats
	LevelCounts []int
	Nodes       []persistedNode
}

type persistedNode struct {
	Parent  int
	M       int
	Offsets []int
	Edges   []int
	Labels  []int64
}

// truncateIndexFile cuts the index file at path down to its first
// depthCap levels and records depthCap as the build's cap, refreshing
// both checksums of the 40-byte header: the file a build capped at
// depthCap would have written.
func truncateIndexFile(t *testing.T, path string, depthCap int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 40
	var p persistedIndex
	if err := gob.NewDecoder(bytes.NewReader(raw[headerLen:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if len(p.LevelCounts) <= depthCap {
		t.Fatalf("tree has %d levels; a cap at %d cuts nothing off", len(p.LevelCounts), depthCap)
	}
	kept := 0
	for _, c := range p.LevelCounts[:depthCap] {
		kept += c
	}
	p.BuiltMaxK, p.LevelCounts, p.Nodes = depthCap, p.LevelCounts[:depthCap], p.Nodes[:kept]
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		t.Fatal(err)
	}
	table := crc64.MakeTable(crc64.ECMA)
	header := raw[:headerLen]
	binary.LittleEndian.PutUint64(header[24:32], crc64.Checksum(body.Bytes(), table))
	binary.LittleEndian.PutUint64(header[32:40], crc64.Checksum(header[0:32], table))
	if err := os.WriteFile(path, append(header, body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplacedGraphIndexSaveDropped: a build of a graph that AddGraph
// replaces while the build is saving must not land its tree. AddGraph
// drops the old index and restarts the version at 1, so a late save
// would be stamped with the replacement's version and recovery would
// serve the old graph's hierarchy for the new graph.
func TestReplacedGraphIndexSaveDropped(t *testing.T) {
	cfg := persistCfg(t)
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("g", twoCliques())
	var k5 [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5 = append(k5, [2]int{i, j})
		}
	}
	replacement := graph.FromEdges(5, k5)

	saving, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookIndexSave = func() {
		once.Do(func() {
			close(saving)
			<-release
		})
	}
	t.Cleanup(func() { testHookIndexSave = nil })

	// The on-demand build answers once its tree is ready; its save then
	// runs asynchronously and stops in the hook.
	if _, err := a.Hierarchy(context.Background(), HierarchyRequest{Graph: "g"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-saving:
	case <-time.After(5 * time.Second):
		t.Fatal("index build never reached its save")
	}
	a.AddGraph("g", replacement)
	close(release)
	// Close waits for the held save to finish (or be dropped).
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if ps := b.Stats().Persistence; ps.IndexLoads != 0 {
		t.Fatalf("recovery loaded %d index(es) saved by the replaced graph's build", ps.IndexLoads)
	}
	ref := New(Config{})
	ref.AddGraph("g", replacement)
	if got, want := hierarchyJSON(t, b, "g"), hierarchyJSON(t, ref, "g"); !bytes.Equal(got, want) {
		t.Fatalf("recovered hierarchy does not describe the replacement graph:\n got  %s\n want %s", got, want)
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
