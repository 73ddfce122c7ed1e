package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"kvcc"
	"kvcc/graph"
	"kvcc/server"
)

// twoCliques is two 5-cliques sharing vertex 4: at k=3 its k-VCCs are the
// two cliques, overlapping in one vertex.
func twoCliques(reverse bool) *graph.Graph {
	var edges [][2]int
	for _, base := range []int{0, 4} {
		for i := base; i < base+5; i++ {
			for j := i + 1; j < base+5; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	if reverse {
		slices.Reverse(edges)
	}
	return graph.FromEdges(9, edges)
}

// twoCliquesDigest pins the digest scheme: golden.json is only valid as
// long as this value holds.
const twoCliquesDigest = "a7a3932789160a202c9488d4"

func TestDigestStable(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		res, err := kvcc.Enumerate(twoCliques(reverse), 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestSets(graphSets(res.Components)); got != twoCliquesDigest {
			t.Errorf("reverse=%v: digest %s, want %s", reverse, got, twoCliquesDigest)
		}
	}
	// Order of sets and of labels within a set does not matter; content does.
	a := digestSets([][]int64{{4, 5, 6, 7, 8}, {0, 1, 2, 3, 4}})
	b := digestSets([][]int64{{3, 2, 1, 0, 4}, {8, 7, 6, 5, 4}})
	if a != b || a != twoCliquesDigest {
		t.Errorf("order-dependent digest: %s vs %s", a, b)
	}
	if c := digestSets([][]int64{{0, 1, 2, 3, 4}, {4, 5, 6, 7}}); c == a {
		t.Error("different components share a digest")
	}
	if digestSets(nil) == digestSets([][]int64{{}}) {
		t.Error("no components and one empty component share a digest")
	}
}

// runTiny runs an enum-cold style window of every k against an
// in-process server holding the two-cliques graph and returns the JSON
// result line.
func runTiny(t *testing.T, want map[string]string) report {
	t.Helper()
	srv := server.New(server.Config{CacheSize: 1})
	srv.AddGraph("tiny", twoCliques(false))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var ops []op
	for _, k := range []int{2, 3, 4} {
		ops = append(ops, enumerateOp(want, ekey{"tiny", k}))
	}
	w, err := runWindow(hs.URL, os.Getpid(), ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &result{setups: []float64{1}, win: w, rssMB: 1}
	var out bytes.Buffer
	if err := writeReport(&out, "tiny", r, r.endToEnd()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return rep
}

func TestWrongGoldenFailsRun(t *testing.T) {
	g := twoCliques(false)
	want := map[string]string{}
	for _, k := range []int{2, 3, 4} {
		res, err := kvcc.Enumerate(g, k)
		if err != nil {
			t.Fatal(err)
		}
		want[ekey{"tiny", k}.String()] = digestSets(graphSets(res.Components))
	}
	rep := runTiny(t, want)
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 3 {
		t.Fatalf("right golden: %+v, want correct with 3 attempted", rep)
	}
	if cpu := rep.Metrics["read_cpu_p50_ms"].Value; !(cpu > 0) {
		t.Errorf("read_cpu_p50_ms = %g, want the server's CPU time per read", cpu)
	}
	want["tiny/3"] = strings.Repeat("0", 24)
	rep = runTiny(t, want)
	if rep.Correct || rep.Failed != 1 || rep.Attempted != 3 {
		t.Fatalf("wrong golden for tiny/3: %+v, want incorrect with 1 of 3 failed", rep)
	}
}

func TestGoldenCoversSequences(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range enumColdSequence(enumColdKeys(g), 1, 200) {
		if _, ok := g.EnumCold[k.String()]; !ok {
			t.Errorf("enum-cold key %s has no golden digest", k)
		}
	}
	if _, ok := g.EnumCold[enumColdWarm.String()]; !ok {
		t.Errorf("warm key %s has no golden digest", enumColdWarm)
	}
	for _, o := range serveHotPass(g) {
		if _, ok := g.ServeHot[o.key()]; !ok {
			t.Errorf("serve-hot key %s has no golden digest", o.key())
		}
	}
}

func TestEnumColdSequenceNeverRepeatsBackToBack(t *testing.T) {
	keys := enumColdGrid()
	for seed := int64(1); seed <= 20; seed++ {
		seq := enumColdSequence(keys, seed, 5*len(keys))
		if len(seq) != 5*len(keys) {
			t.Fatalf("seed %d: %d ops, want whole passes", seed, len(seq))
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] == seq[i-1] {
				t.Fatalf("seed %d: %s twice in a row at %d", seed, seq[i], i)
			}
		}
	}
}
