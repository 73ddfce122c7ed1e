// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic dataset stand-ins:
//
//	table1  network statistics                       (Table 1)
//	fig7    average diameter, k-core/k-ECC/k-VCC     (Fig. 7)
//	fig8    average edge density                     (Fig. 8)
//	fig9    average clustering coefficient           (Fig. 9)
//	fig10   processing time of the four algorithms   (Fig. 10)
//	table2  sweep-rule pruning proportions           (Table 2)
//	fig11   number of k-VCCs                         (Fig. 11)
//	fig12   memory usage of VCCE*                    (Fig. 12)
//	fig13   scalability varying |V| and |E|          (Fig. 13)
//	fig14   DBLP-style ego network case study        (Fig. 14)
//
// Usage:
//
//	experiments -exp all -scale 0.5
//	experiments -exp fig10,table2 -scale 1.0
//
// Absolute numbers differ from the paper (synthetic data, different
// hardware); the reproduction target is the qualitative shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kvcc"
	"kvcc/graph"
	"kvcc/internal/dataset"
)

type config struct {
	scale float64
}

var experiments = []struct {
	name string
	desc string
	run  func(cfg config) error
}{
	{"table1", "Table 1: network statistics", runTable1},
	{"fig7", "Fig. 7: average diameter", func(c config) error { return runEffectiveness(c, "diameter") }},
	{"fig8", "Fig. 8: average edge density", func(c config) error { return runEffectiveness(c, "density") }},
	{"fig9", "Fig. 9: average clustering coefficient", func(c config) error { return runEffectiveness(c, "clustering") }},
	{"fig10", "Fig. 10: processing time", runFig10},
	{"table2", "Table 2: sweep rule proportions", runTable2},
	{"fig11", "Fig. 11: number of k-VCCs", runFig11},
	{"fig12", "Fig. 12: memory usage of VCCE*", runFig12},
	{"fig13", "Fig. 13: scalability", runFig13},
	{"fig14", "Fig. 14: case study", runFig14},
}

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		scale = flag.Float64("scale", 0.5, "dataset scale factor (1.0 = full synthetic size)")
	)
	flag.Parse()
	cfg := config{scale: *scale}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	ran := 0
	for _, e := range experiments {
		if !all && !want[e.name] {
			continue
		}
		fmt.Printf("==== %s (%s, scale %.2f) ====\n", e.name, e.desc, cfg.scale)
		start := time.Now()
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.name, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched -exp %q\n", *exp)
		os.Exit(2)
	}
}

// enumerate times one enumeration run.
func enumerate(g *graph.Graph, k int, algo kvcc.Algorithm) (*kvcc.Result, time.Duration) {
	start := time.Now()
	res, err := kvcc.Enumerate(g, k, kvcc.WithAlgorithm(algo))
	if err != nil {
		panic(err)
	}
	return res, time.Since(start)
}

func loadDataset(name string, scale float64) *graph.Graph {
	g, err := dataset.Load(name, scale)
	if err != nil {
		panic(err)
	}
	return g
}
