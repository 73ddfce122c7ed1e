package hierarchy

// FromLevels reassembles a Tree from externally reconstructed nodes —
// the deserialization entry point for the snapshot store's persisted
// index. levels[k-1] must hold the level-k nodes in canonical order with
// Parent pointers already wired (Children lists are rebuilt here, so
// callers only restore the upward links); stats restores the build-time
// metadata a served index reports.
//
// The reassembled tree is indistinguishable from the Build output it was
// flattened from: the same canonical level orders, the same label index,
// the same Level/Cohesion/Path answers.
func FromLevels(levels [][]*Node, stats Stats) *Tree {
	t := &Tree{
		Stats:  stats,
		levels: levels,
		MaxK:   len(levels),
	}
	if len(levels) > 0 {
		t.Roots = levels[0]
	}
	for _, level := range levels {
		for _, n := range level {
			if n.Parent != nil {
				n.Parent.Children = append(n.Parent.Children, n)
			}
		}
	}
	t.buildLabelIndex()
	return t
}
