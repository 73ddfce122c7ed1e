package difftest

import (
	"context"
	"math/rand"
	"testing"

	"kvcc"
	"kvcc/graph"
	"kvcc/internal/core"
)

// EditBatch is one round of an edit script: labels to connect and labels
// to disconnect, applied atomically.
type EditBatch struct {
	Inserts [][2]int64
	Deletes [][2]int64
}

// EditScript derives a deterministic sequence of edit batches for g: a
// mix of deletions of current edges, insertions of absent ones, and the
// occasional brand-new vertex, spread over `rounds` batches of `perRound`
// edits. The script tracks its own view of the evolving edge set so
// deletions mostly hit edges that exist and insertions mostly create
// edges — the interesting regime for incremental maintenance.
func EditScript(g *graph.Graph, rounds, perRound int, seed int64) []EditBatch {
	rng := rand.New(rand.NewSource(seed))
	labels := append([]int64(nil), g.Labels()...)
	// The live edges sit in a slice, so "the n-th edge" is the same on
	// every run; at maps each edge to its slot for duplicate checks and
	// swap deletion.
	var live [][2]int64
	at := make(map[[2]int64]int)
	add := func(a, b int64) {
		e := [2]int64{min(a, b), max(a, b)}
		if _, ok := at[e]; !ok {
			at[e] = len(live)
			live = append(live, e)
		}
	}
	for _, e := range g.Edges(nil) {
		add(g.Label(e[0]), g.Label(e[1]))
	}
	maxLabel := int64(0)
	for _, l := range labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	var script []EditBatch
	for r := 0; r < rounds; r++ {
		var batch EditBatch
		for i := 0; i < perRound; i++ {
			switch {
			case rng.Intn(3) == 0 && len(live) > 0:
				// Delete a random existing edge.
				n := rng.Intn(len(live))
				e, last := live[n], live[len(live)-1]
				batch.Deletes = append(batch.Deletes, e)
				live[n], at[last] = last, n
				live = live[:len(live)-1]
				delete(at, e)
			case rng.Intn(8) == 0:
				// Wire in a brand-new vertex.
				maxLabel++
				anchor := labels[rng.Intn(len(labels))]
				batch.Inserts = append(batch.Inserts, [2]int64{maxLabel, anchor})
				add(maxLabel, anchor)
				labels = append(labels, maxLabel)
			default:
				a := labels[rng.Intn(len(labels))]
				b := labels[rng.Intn(len(labels))]
				if a == b {
					continue
				}
				batch.Inserts = append(batch.Inserts, [2]int64{a, b})
				add(a, b)
			}
		}
		script = append(script, batch)
	}
	return script
}

// CheckIncremental replays an edit script through a kvcc.Dynamic handle
// and fails the test unless, after every batch, the incrementally
// maintained result is identical — same component label sets, same
// canonical order — to a from-scratch enumeration of the edited graph at
// the same version. This is the differential guarantee of the dynamic
// layer: an observer cannot tell whether a result was maintained or
// recomputed.
func CheckIncremental(t testing.TB, g *graph.Graph, k int, script []EditBatch) {
	t.Helper()
	d, err := kvcc.NewDynamic(g, k)
	if err != nil {
		t.Fatalf("NewDynamic k=%d: %v", k, err)
	}
	for round, batch := range script {
		res, err := d.ApplyEdits(context.Background(), batch.Inserts, batch.Deletes)
		if err != nil {
			t.Fatalf("round %d k=%d: %v", round, k, err)
		}
		cold, _, err := core.Enumerate(d.Graph(), k, core.Options{})
		if err != nil {
			t.Fatalf("round %d k=%d cold: %v", round, k, err)
		}
		got := Signatures(res.Components)
		want := Signatures(cold)
		if !equal(got, want) {
			t.Fatalf("round %d k=%d: incremental diverges from from-scratch:\n  incremental %v\n  cold        %v",
				round, k, got, want)
		}
	}
}
