package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kvcc/cohesion"
	"kvcc/graph"
	"kvcc/hierarchy"
	"kvcc/internal/difftest"
)

// sameGraph asserts two graphs carry identical CSR arrays and labels.
func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got n=%d m=%d, want n=%d m=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	gotOff, gotEdges := got.Adjacency()
	wantOff, wantEdges := want.Adjacency()
	if !reflect.DeepEqual(gotOff, wantOff) {
		t.Fatalf("offsets differ")
	}
	if len(gotEdges) != len(wantEdges) {
		t.Fatalf("edge arrays differ in length: %d vs %d", len(gotEdges), len(wantEdges))
	}
	if len(gotEdges) > 0 && !reflect.DeepEqual(gotEdges, wantEdges) {
		t.Fatalf("edge arrays differ")
	}
	if len(got.Labels()) > 0 && !reflect.DeepEqual(got.Labels(), want.Labels()) {
		t.Fatalf("labels differ")
	}
}

// TestSnapshotRoundTrip writes and reopens every corpus graph, asserting
// the adopted CSR is bit-identical and survives full verification.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range difftest.Corpus() {
		t.Run(tc.Name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), snapshotName)
			if err := WriteSnapshotStream(path, GraphStream(tc.G, 7)); err != nil {
				t.Fatalf("WriteSnapshotStream: %v", err)
			}
			snap, err := OpenSnapshot(path)
			if err != nil {
				t.Fatalf("OpenSnapshot: %v", err)
			}
			defer snap.Close()
			if snap.Version() != 7 {
				t.Fatalf("version = %d, want 7", snap.Version())
			}
			if err := snap.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			sameGraph(t, snap.Graph(), tc.G)
		})
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	empty := graph.FromEdges(0, nil)
	path := filepath.Join(t.TempDir(), snapshotName)
	if err := WriteSnapshotStream(path, GraphStream(empty, 1)); err != nil {
		t.Fatalf("WriteSnapshotStream: %v", err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	defer snap.Close()
	if err := snap.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if snap.Graph().NumVertices() != 0 || snap.Graph().NumEdges() != 0 {
		t.Fatalf("empty graph round-tripped as n=%d m=%d",
			snap.Graph().NumVertices(), snap.Graph().NumEdges())
	}
}

// TestSnapshotDamage distinguishes the two checksum tiers: header damage
// fails the O(1) open; payload damage passes open (deliberately — the
// payload is not read) but fails Verify.
func TestSnapshotDamage(t *testing.T) {
	g := difftest.Corpus()[0].G
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotName)
	if err := WriteSnapshotStream(path, GraphStream(g, 3)); err != nil {
		t.Fatalf("WriteSnapshotStream: %v", err)
	}

	flip := func(t *testing.T, off int64) string {
		t.Helper()
		damaged := filepath.Join(t.TempDir(), snapshotName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xff
		if err := os.WriteFile(damaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return damaged
	}

	t.Run("header", func(t *testing.T) {
		_, err := OpenSnapshot(flip(t, 20)) // inside the n field
		if !IsCorrupt(err) {
			t.Fatalf("open with damaged header: err = %v, want corruption", err)
		}
	})
	t.Run("payload", func(t *testing.T) {
		snap, err := OpenSnapshot(flip(t, snapshotHeader+int64(8*g.NumVertices())))
		if err != nil {
			// Payload damage may break a CSR invariant AdoptCSR's O(1)
			// checks happen to see; that is also a corruption report.
			if !IsCorrupt(err) {
				t.Fatalf("open with damaged payload: err = %v, want nil or corruption", err)
			}
			return
		}
		defer snap.Close()
		if err := snap.Verify(); !IsCorrupt(err) {
			t.Fatalf("Verify on damaged payload: err = %v, want corruption", err)
		}
	})
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path, 0)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	want := []Batch{
		{PrevVersion: 1, NewVersion: 3, Inserts: [][2]int64{{1, 2}, {2, 3}}},
		{PrevVersion: 3, NewVersion: 4, Deletes: [][2]int64{{1, 2}}},
		{PrevVersion: 4, NewVersion: 4}, // empty batch is legal on the wire
	}
	for _, b := range want {
		if err := w.append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	w.close()

	got, goodSize, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	info, _ := os.Stat(path)
	if goodSize != info.Size() {
		t.Fatalf("goodSize = %d, file is %d", goodSize, info.Size())
	}
	if len(got) != len(want) {
		t.Fatalf("read %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PrevVersion != want[i].PrevVersion || got[i].NewVersion != want[i].NewVersion {
			t.Fatalf("batch %d versions: got %d->%d, want %d->%d",
				i, got[i].PrevVersion, got[i].NewVersion, want[i].PrevVersion, want[i].NewVersion)
		}
		if len(got[i].Inserts) != len(want[i].Inserts) || len(got[i].Deletes) != len(want[i].Deletes) {
			t.Fatalf("batch %d edit counts differ", i)
		}
		for j, e := range want[i].Inserts {
			if got[i].Inserts[j] != e {
				t.Fatalf("batch %d insert %d: got %v, want %v", i, j, got[i].Inserts[j], e)
			}
		}
	}
}

// TestWALTornTail simulates a crash mid-append at every possible cut
// point inside the final record: the clean prefix must always come back,
// and opening for append must truncate the tail away.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	w, err := openWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(Batch{PrevVersion: 1, NewVersion: 2, Inserts: [][2]int64{{10, 20}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.append(Batch{PrevVersion: 2, NewVersion: 3, Inserts: [][2]int64{{20, 30}}}); err != nil {
		t.Fatal(err)
	}
	w.close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batches, _, err := readWAL(path)
	if err != nil || len(batches) != 2 {
		t.Fatalf("intact log: %d batches, err %v", len(batches), err)
	}
	// The second record starts where the first one ends.
	recStart := int64(len(encodeBatch(Batch{PrevVersion: 1, NewVersion: 2, Inserts: [][2]int64{{10, 20}}})))

	for cut := recStart + 1; cut < int64(len(whole)); cut += 7 {
		torn := filepath.Join(t.TempDir(), walName)
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		batches, goodSize, err := readWAL(torn)
		if err != nil {
			t.Fatalf("cut at %d: readWAL: %v", cut, err)
		}
		if len(batches) != 1 || goodSize != recStart {
			t.Fatalf("cut at %d: %d batches, goodSize %d (want 1, %d)", cut, len(batches), goodSize, recStart)
		}
		w, err := openWAL(torn, goodSize)
		if err != nil {
			t.Fatalf("cut at %d: openWAL: %v", cut, err)
		}
		w.close()
		if info, _ := os.Stat(torn); info.Size() != recStart {
			t.Fatalf("cut at %d: tail not truncated: size %d", cut, info.Size())
		}
	}
}

// TestWALCorruptRecord flips one payload byte of the final record: its
// CRC must reject it and the scan must keep the prefix.
func TestWALCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), walName)
	w, err := openWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.append(Batch{PrevVersion: 1, NewVersion: 2, Inserts: [][2]int64{{1, 2}}})
	w.append(Batch{PrevVersion: 2, NewVersion: 3, Inserts: [][2]int64{{3, 4}}})
	w.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	batches, goodSize, err := readWAL(path)
	if err != nil {
		t.Fatalf("readWAL: %v", err)
	}
	if len(batches) != 1 {
		t.Fatalf("corrupt final record not dropped: %d batches survive", len(batches))
	}
	if goodSize >= int64(len(data)) {
		t.Fatalf("goodSize %d includes the corrupt record", goodSize)
	}
}

// TestStoreRecovery drives the full cycle on a corpus graph: checkpoint,
// durable edits, crash (no clean shutdown), reopen, and asserts the
// recovered graph is the exact compaction of snapshot + WAL.
func TestStoreRecovery(t *testing.T) {
	base := difftest.Corpus()[0].G
	dir := t.TempDir()
	st, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, ok := st.Graph(); ok {
		t.Fatal("fresh store claims to hold a graph")
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	// Apply two batches through a real overlay so the logged versions are
	// exactly what replay must reproduce.
	delta := graph.NewDeltaAt(base, 1)
	v0 := delta.Version()
	ins1 := [][2]int64{{9001, 9002}, {9002, 9003}, {9001, 9003}}
	for _, e := range ins1 {
		delta.InsertEdge(e[0], e[1])
	}
	if err := st.Append(Batch{PrevVersion: v0, NewVersion: delta.Version(), Inserts: ins1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	v1 := delta.Version()
	del2 := [][2]int64{{9001, 9002}}
	for _, e := range del2 {
		delta.DeleteEdge(e[0], e[1])
	}
	if err := st.Append(Batch{PrevVersion: v1, NewVersion: delta.Version(), Deletes: del2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want := delta.Compact()
	wantVersion := delta.Version()
	// No st.Close(): the crash keeps the mapping alive and the WAL as-is.

	st2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g, version, ok := st2.Graph()
	if !ok {
		t.Fatal("recovered store has no graph")
	}
	if version != wantVersion {
		t.Fatalf("recovered version %d, want %d", version, wantVersion)
	}
	if replayed, torn := st2.Replayed(); replayed != 2 || torn {
		t.Fatalf("replayed=%d torn=%v, want 2, false", replayed, torn)
	}
	sameGraph(t, g, want)

	// A checkpoint folds the WAL: the next open replays nothing.
	if err := st2.Checkpoint(g, version); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st2.Pending() != 0 {
		t.Fatalf("pending = %d after checkpoint", st2.Pending())
	}
	st2.Close()
	st3, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer st3.Close()
	if replayed, _ := st3.Replayed(); replayed != 0 {
		t.Fatalf("replayed %d batches after checkpoint", replayed)
	}
	g3, v3, _ := st3.Graph()
	if v3 != wantVersion {
		t.Fatalf("version after checkpointed reopen: %d, want %d", v3, wantVersion)
	}
	sameGraph(t, g3, want)
}

// TestStoreCrashBetweenSnapshotAndTruncate covers the checkpoint's
// in-between state: the new snapshot landed (rename succeeded) but the
// process died before the WAL reset. Replay must skip every record the
// snapshot already folded in.
func TestStoreCrashBetweenSnapshotAndTruncate(t *testing.T) {
	base := difftest.Corpus()[1].G
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	delta := graph.NewDeltaAt(base, 1)
	ins := [][2]int64{{7001, 7002}, {7002, 7003}}
	v0 := delta.Version()
	for _, e := range ins {
		delta.InsertEdge(e[0], e[1])
	}
	if err := st.Append(Batch{PrevVersion: v0, NewVersion: delta.Version(), Inserts: ins}); err != nil {
		t.Fatal(err)
	}
	want := delta.Compact()
	wantVersion := delta.Version()

	// Simulate the torn checkpoint: write the new snapshot directly,
	// leaving the WAL untouched.
	if err := WriteSnapshotStream(filepath.Join(dir, snapshotName), GraphStream(want, wantVersion)); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g, version, _ := st2.Graph()
	if version != wantVersion {
		t.Fatalf("version = %d, want %d", version, wantVersion)
	}
	if replayed, _ := st2.Replayed(); replayed != 0 {
		t.Fatalf("replayed %d batches the snapshot already covers", replayed)
	}
	sameGraph(t, g, want)
}

// TestStoreStaleTmpCleanup: a crash mid-checkpoint leaves a temp file
// that must never shadow the real snapshot and must be swept at open.
func TestStoreStaleTmpCleanup(t *testing.T) {
	base := difftest.Corpus()[2].G
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, snapshotName+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen with stale tmp: %v", err)
	}
	defer st2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived open", tmp)
	}
	g, _, ok := st2.Graph()
	if !ok {
		t.Fatal("graph lost")
	}
	sameGraph(t, g, base)
}

// TestStoreRejectsBrokenChain: a WAL record whose PrevVersion does not
// chain onto the store is damage a crash cannot produce. Append refuses
// to write one in the first place, and Open fails on a log that holds one
// anyway (planted directly on disk here, bypassing the guard).
func TestStoreRejectsBrokenChain(t *testing.T) {
	base := difftest.Corpus()[0].G
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(base, 1); err != nil {
		t.Fatal(err)
	}
	bad := Batch{PrevVersion: 5, NewVersion: 6, Inserts: [][2]int64{{1, 2}}}
	if err := st.Append(bad); err == nil {
		t.Fatal("Append accepted a batch that does not chain onto the store")
	}
	st.Close()

	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeBatch(bad)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); !IsCorrupt(err) {
		t.Fatalf("open with non-chaining WAL: err = %v, want corruption", err)
	}
}

// TestIndexRoundTrip persists and reloads a real hierarchy, asserting the
// reassembled tree serves the same levels, and that a version mismatch is
// silently ignored rather than served.
func TestIndexRoundTrip(t *testing.T) {
	tc := difftest.Corpus()[0]
	tree, err := hierarchy.Build(tc.G, hierarchy.Options{})
	if err != nil {
		t.Fatalf("hierarchy.Build: %v", err)
	}
	path := filepath.Join(t.TempDir(), indexName)
	if err := writeIndex(path, tree, 42, 12.5); err != nil {
		t.Fatalf("writeIndex: %v", err)
	}

	got, buildMS, ok, err := readIndex(path, 42, cohesion.KVCC)
	if err != nil || !ok {
		t.Fatalf("readIndex: ok=%v err=%v", ok, err)
	}
	if buildMS != 12.5 {
		t.Fatalf("buildMS = %v, want 12.5", buildMS)
	}
	if got.MaxK != tree.MaxK || got.Size() != tree.Size() {
		t.Fatalf("tree shape: got (maxK=%d size=%d), want (%d, %d)",
			got.MaxK, got.Size(), tree.MaxK, tree.Size())
	}
	for k := 1; k <= tree.MaxK; k++ {
		wantSigs := difftest.Signatures(tree.LevelComponents(k))
		gotSigs := difftest.Signatures(got.LevelComponents(k))
		if !reflect.DeepEqual(gotSigs, wantSigs) {
			t.Fatalf("level %d differs after round trip", k)
		}
	}

	if _, _, ok, err := readIndex(path, 41, cohesion.KVCC); err != nil || ok {
		t.Fatalf("stale-version index: ok=%v err=%v, want ignored", ok, err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := readIndex(path, 42, cohesion.KVCC); !IsCorrupt(err) {
		t.Fatalf("damaged index: err = %v, want corruption", err)
	}
}

// TestTruncatedIndexIsStale: an index file whose payload records a depth
// cap (written by builds that could stop at a level) holds a tree that
// cannot answer past the cap, so it loads as stale (ok=false, nil error)
// and the caller rebuilds rather than serving it.
func TestTruncatedIndexIsStale(t *testing.T) {
	tree, err := hierarchy.Build(difftest.Corpus()[0].G, hierarchy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), indexName)
	if err := writeIndex(path, tree, 42, 1); err != nil {
		t.Fatal(err)
	}
	setIndexBuiltMaxK(t, path, 3)
	if got, _, ok, err := readIndex(path, 42, cohesion.KVCC); err != nil || ok || got != nil {
		t.Fatalf("BuiltMaxK=3 index: tree=%v ok=%v err=%v, want stale", got != nil, ok, err)
	}
	setIndexBuiltMaxK(t, path, 0)
	if _, _, ok, err := readIndex(path, 42, cohesion.KVCC); err != nil || !ok {
		t.Fatalf("BuiltMaxK=0 index: ok=%v err=%v, want loaded", ok, err)
	}
}

// setIndexBuiltMaxK rewrites the index file at path with its payload's
// BuiltMaxK set to maxK and both checksums refreshed, so the file is
// intact and differs from a fresh one only in the recorded depth cap.
func setIndexBuiltMaxK(t *testing.T, path string, maxK int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p indexPayload
	if err := gob.NewDecoder(bytes.NewReader(raw[indexHeader:])).Decode(&p); err != nil {
		t.Fatal(err)
	}
	p.BuiltMaxK = maxK
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		t.Fatal(err)
	}
	header := raw[:indexHeader]
	binary.LittleEndian.PutUint64(header[24:32], crc64.Checksum(body.Bytes(), crcTable))
	binary.LittleEndian.PutUint64(header[32:40], crc64.Checksum(header[0:32], crcTable))
	if err := os.WriteFile(path, append(header, body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}
