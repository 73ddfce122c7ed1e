package store

import (
	"os"
	"path/filepath"
	"testing"

	"kvcc"
	"kvcc/gen"
)

// Beyond-RAM smoke, driven by CI under a cgroup memory cap. Both halves
// are inert (skipped) unless KVCC_COLD_SMOKE_DIR points at a scratch
// directory. The generate half runs outside the cgroup — building the
// graph needs the full CSR on the heap — and leaves only a snapshot
// file behind; the serve half is what runs under systemd-run with
// MemoryMax well below the mapping size, proving a sequential cold
// enumeration completes when the mapping cannot be resident all at
// once.
const coldSmokeEnv = "KVCC_COLD_SMOKE_DIR"

// Sized so the mapping (~290 MB) exceeds the cap CI applies (192 MB):
// the serve half must survive on partial residency.
const (
	coldSmokeN = 2_000_000
	coldSmokeM = 16_000_000
)

func coldSmokeDir(t *testing.T) string {
	dir := os.Getenv(coldSmokeEnv)
	if dir == "" {
		t.Skipf("%s not set; cgroup smoke only runs under CI's systemd-run harness", coldSmokeEnv)
	}
	return dir
}

func TestColdSmokeGenerate(t *testing.T) {
	dir := coldSmokeDir(t)
	g := gen.Community(coldSmokeN, coldSmokeM, 7)
	if err := WriteSnapshotStream(filepath.Join(dir, snapshotName), GraphStream(g, 1)); err != nil {
		t.Fatalf("WriteSnapshotStream: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold smoke snapshot: %d MB", info.Size()>>20)
}

func TestColdSmokeServe(t *testing.T) {
	dir := coldSmokeDir(t)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	g, _, ok := st.Graph()
	if !ok {
		t.Fatal("no graph recovered from the smoke snapshot")
	}
	if g.NumVertices() != coldSmokeN {
		t.Fatalf("recovered n=%d, want %d", g.NumVertices(), coldSmokeN)
	}
	// k above every core number: the enumeration is one full reduction
	// scan over the (mostly non-resident) edge array.
	res, err := kvcc.Enumerate(g, 64)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if resident, total, probed := st.snap.Residency(); probed {
		t.Logf("served scan with %d/%d mapping pages resident at exit (%d components)",
			resident, total, len(res.Components))
	}
}
