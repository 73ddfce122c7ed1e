package dataset

import (
	"fmt"
	"testing"

	"kvcc/internal/kcore"
)

func TestNamesAndUnknownDataset(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("names = %v, want 7 datasets", names)
	}
	for _, p := range profiles {
		if p.meta.PaperVertices <= 0 || p.meta.PaperEdges <= 0 {
			t.Fatalf("%s: paper stats missing: %+v", p.meta.Name, p.meta)
		}
	}
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("Load must reject unknown names")
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("DBLP", 0.2)
	b := MustLoad("DBLP", 0.2)
	if fmt.Sprint(a.Edges(nil)) != fmt.Sprint(b.Edges(nil)) {
		t.Fatal("dataset generation not deterministic")
	}
}

func TestLoadScales(t *testing.T) {
	small := MustLoad("Google", 0.1)
	big := MustLoad("Google", 0.3)
	if small.NumVertices() >= big.NumVertices() {
		t.Fatalf("scale not monotone: %d vs %d vertices", small.NumVertices(), big.NumVertices())
	}
}

// Every dataset must have non-trivial k-core structure in the k range its
// experiments use — otherwise the efficiency figures would measure noise.
func TestDatasetsHaveStructureInKRange(t *testing.T) {
	krange := map[string][2]int{
		"Youtube":  {6, 9},
		"DBLP":     {15, 30},
		"Google":   {18, 30},
		"Cnr":      {17, 30},
		"Stanford": {20, 30},
		"ND":       {20, 30},
		"Cit":      {20, 30},
	}
	for _, name := range Names() {
		g := MustLoad(name, 0.15)
		r := krange[name]
		for _, k := range []int{r[0], r[1]} {
			core, _ := kcore.Reduce(g, k)
			if core.NumVertices() == 0 {
				t.Errorf("%s: empty %d-core; generator profile too weak", name, k)
			}
		}
	}
}

func TestCommunitiesGroundTruth(t *testing.T) {
	comms, err := Communities("DBLP", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) < 2 {
		t.Fatalf("communities = %d", len(comms))
	}
	g := MustLoad("DBLP", 0.2)
	idx := g.LabelIndex()
	for _, c := range comms {
		for _, l := range c {
			if _, ok := idx[l]; !ok {
				t.Fatalf("community label %d missing from graph", l)
			}
		}
	}
	if _, err := Communities("nope", 1); err == nil {
		t.Fatal("Communities must reject unknown names")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(0.1)
	if len(rows) != 7 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices == 0 || r.Edges == 0 || r.MaxDegree == 0 {
			t.Fatalf("%s: empty row %+v", r.Meta.Name, r)
		}
		if r.Density <= 0 {
			t.Fatalf("%s: density %v", r.Meta.Name, r.Density)
		}
	}
	// Web datasets must show hubbier degree profiles than collaboration.
	byName := map[string]Stats{}
	for _, r := range rows {
		byName[r.Meta.Name] = r
	}
	if byName["Cnr"].Density <= byName["DBLP"].Density {
		t.Errorf("expected Cnr (web) denser than DBLP: %.2f vs %.2f",
			byName["Cnr"].Density, byName["DBLP"].Density)
	}
}
