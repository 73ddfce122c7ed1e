package sparse

import (
	"math/rand"
	"testing"
)

// A shared Scratch reused across many graphs must produce certificates
// identical to one-shot Compute calls, including side groups.
func TestComputeScratchMatchesCompute(t *testing.T) {
	var s Scratch
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		g := randomConnectedGraph(n, 0.25, rng)
		k := 1 + rng.Intn(5)
		got := ComputeScratch(g, k, &s)
		want := Compute(g, k)
		if gn, wn := got.SC.NumEdges(), want.SC.NumEdges(); gn != wn {
			t.Fatalf("seed %d k=%d: SC edges %d != %d", seed, k, gn, wn)
		}
		for v := 0; v < n; v++ {
			for i, w := range want.SC.Neighbors(v) {
				if got.SC.Neighbors(v)[i] != w {
					t.Fatalf("seed %d k=%d: SC adjacency differs at %d", seed, k, v)
				}
			}
			if got.GroupID[v] != want.GroupID[v] {
				t.Fatalf("seed %d k=%d: GroupID[%d] = %d != %d",
					seed, k, v, got.GroupID[v], want.GroupID[v])
			}
		}
		if len(got.SideGroups) != len(want.SideGroups) {
			t.Fatalf("seed %d k=%d: %d side groups != %d",
				seed, k, len(got.SideGroups), len(want.SideGroups))
		}
		for i, grp := range want.SideGroups {
			if len(got.SideGroups[i]) != len(grp) {
				t.Fatalf("seed %d k=%d: group %d size differs", seed, k, i)
			}
			for j, v := range grp {
				if got.SideGroups[i][j] != v {
					t.Fatalf("seed %d k=%d: group %d member %d differs", seed, k, i, j)
				}
			}
		}
	}
}

// With a warmed-up Scratch, the only remaining allocations are the SC
// graph struct and the Certificate struct — the bucket queue, certificate
// edge list, SC's CSR arrays, union-find, and group member storage must
// all be reused.
func TestComputeScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(200, 0.08, rng)
	var s Scratch
	ComputeScratch(g, 4, &s) // warm
	allocs := testing.AllocsPerRun(50, func() { ComputeScratch(g, 4, &s) })
	if allocs > 2 {
		t.Fatalf("warm ComputeScratch allocates %.1f times per run, want <= 2", allocs)
	}
}
