// Command kvcc enumerates the k-vertex connected components of an
// edge-list graph.
//
// Usage:
//
//	kvcc -k 4 -in graph.txt [-algo star|basic|ns|gs] [-out comps.txt]
//	     [-stats] [-parallel N]
//
// The input is a SNAP-style edge list ('#' comments, "u v" per line). The
// output lists each component's vertex labels, one component per line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"kvcc"
	"kvcc/graphio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		k        = fs.Int("k", 4, "connectivity parameter k (>= 1)")
		in       = fs.String("in", "", "input edge list file (required)")
		out      = fs.String("out", "", "output file (default stdout)")
		algo     = fs.String("algo", "star", "algorithm: basic | ns | gs | star")
		stats    = fs.Bool("stats", false, "print work statistics to stderr")
		parallel = fs.Int("parallel", 1, "worker count for independent subgraphs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "kvcc: -in is required")
		fs.Usage()
		return 2
	}
	algorithm, ok := map[string]kvcc.Algorithm{
		"basic": kvcc.VCCE, "ns": kvcc.VCCEN, "gs": kvcc.VCCEG, "star": kvcc.VCCEStar,
	}[*algo]
	if !ok {
		fmt.Fprintf(stderr, "kvcc: unknown algorithm %q\n", *algo)
		return 2
	}

	g, err := graphio.ReadEdgeListFile(*in)
	if err != nil {
		fmt.Fprintln(stderr, "kvcc:", err)
		return 1
	}
	res, err := kvcc.Enumerate(g, *k,
		kvcc.WithAlgorithm(algorithm), kvcc.WithParallelism(*parallel))
	if err != nil {
		fmt.Fprintln(stderr, "kvcc:", err)
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "kvcc:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := graphio.WriteComponents(w, res.Components); err != nil {
		fmt.Fprintln(stderr, "kvcc:", err)
		return 1
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(stderr,
			"components: %d\nglobal-cut calls: %d\npartitions: %d\nblock splits: %d\nloc-cut tests: %d\nflow runs: %d\nswept ns1/ns2/gs: %d/%d/%d\ntested: %d\npeak bytes: %d\n",
			len(res.Components), s.GlobalCutCalls, s.Partitions, s.BlockSplits, s.LocCutTests,
			s.FlowRuns, s.SweptNS1, s.SweptNS2, s.SweptGS, s.TestedNonPrune, s.PeakBytes)
	}
	return 0
}
