package main

import (
	"fmt"
	"math/rand"
	"time"

	"kvcc"
)

// makeGolden recomputes golden.json in-process with kvcc.Enumerate, away
// from kvccd and its serving ladder. The graphs are deterministic, so the
// file only changes when the algorithm's answers do.
func makeGolden(path string) error {
	g := &golden{
		EnumCold: map[string]string{},
		ServeHot: map[string]string{},
		MaxK:     map[string]int{},
		Pool:     map[string][]int64{},
		Batches:  map[string][][]int64{},
	}
	grid := enumColdGrid()
	graphs := enumColdGraphs(grid)
	for _, k := range append(grid, enumColdWarm) {
		t := time.Now()
		res, err := kvcc.Enumerate(graphs[k.graph], k.k)
		if err != nil {
			return err
		}
		if time.Since(t) > time.Second && k != enumColdWarm {
			// Keys over a second would make a run a handful of samples.
			g.Dropped = append(g.Dropped, k.String())
			continue
		}
		g.EnumCold[k.String()] = digestSets(graphSets(res.Components))
	}

	for _, name := range serveHotGraphs {
		gr := loadGraphs(name)[name]
		var levels []*kvcc.Result // levels[k-1]
		for k := 1; ; k++ {
			res, err := kvcc.Enumerate(gr, k)
			if err != nil {
				return err
			}
			if len(res.Components) == 0 {
				break
			}
			levels = append(levels, res)
		}
		maxK := len(levels)
		g.MaxK[name] = maxK
		// Pool: one vertex of the first component at four depths, so
		// components-containing answers are non-empty at many levels.
		seen := map[int64]bool{}
		for _, q := range []int{maxK, 3 * maxK / 4, maxK / 2, max(2, maxK/4)} {
			for _, l := range levels[q-1].Components[0].Labels() {
				if !seen[l] {
					seen[l] = true
					g.Pool[name] = append(g.Pool[name], l)
					break
				}
			}
		}
		// Cohesion batches: two fixed random samples of 16 vertices.
		rng := rand.New(rand.NewSource(7))
		labels := gr.Labels()
		for b := 0; b < 2; b++ {
			var batch []int64
			var coh []int
			for _, i := range rng.Perm(len(labels))[:16] {
				v := labels[i]
				c := 0
				for k := maxK; k >= 1; k-- {
					if len(levels[k-1].ComponentsContaining(v)) > 0 {
						c = k
						break
					}
				}
				batch = append(batch, v)
				coh = append(coh, c)
			}
			g.Batches[name] = append(g.Batches[name], batch)
			g.ServeHot[shop{"cohesion", name, b, 0}.key()] = digestSets(cohesionSets(batch, coh))
		}
		for k := 2; k <= maxK; k++ {
			res := levels[k-1]
			g.ServeHot[shop{"enumerate", name, k, 0}.key()] = digestSets(graphSets(res.Components))
			g.ServeHot[shop{"overlap", name, k, 0}.key()] = digestSets(matrixSets(res.OverlapMatrix()))
			for _, v := range g.Pool[name] {
				var sets [][]int64
				for _, i := range res.ComponentsContaining(v) {
					sets = append(sets, res.Components[i].Labels())
				}
				g.ServeHot[shop{"containing", name, k, v}.key()] = digestSets(sets)
			}
		}
	}
	if err := g.save(path); err != nil {
		return err
	}
	fmt.Printf("golden: %d enum-cold keys (%d dropped), %d serve-hot keys -> %s\n",
		len(g.EnumCold), len(g.Dropped), len(g.ServeHot), path)
	return nil
}
