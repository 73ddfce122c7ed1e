// Package hierarchy builds the structural cohesion hierarchy of a graph:
// the nesting tree of k-VCCs for k = 1, 2, 3, ... (Moody & White's
// hierarchical conception of social cohesion, reference [20] of the
// paper). Level k of the tree holds exactly the k-VCCs of the graph; each
// (k+1)-VCC is nested inside exactly one k-VCC, because two distinct
// k-VCCs overlap in fewer than k vertices (Property 1, Section 3) while a
// (k+1)-VCC has more than k+1 vertices.
//
// That same fact makes the construction efficient: level k+1 is computed
// by enumerating (k+1)-VCCs inside each level-k component independently
// (each call going through the same KVCC-ENUM pipeline as the kvcc
// package), optionally in parallel across siblings, so the work shrinks
// as the hierarchy deepens — Tree.Stats records exactly how much. Build
// stops at the first level with no components, so every tree is complete.
//
// The finished Tree is an immutable serving index: Level(k) returns the
// k-VCCs in the same canonical order a direct enumeration would, and
// Cohesion/Path answer per-vertex queries from a label map in O(1)-ish
// time. The kvccd server builds one Tree per graph in the background and
// serves any-k enumeration, cohesion and batch queries from it.
package hierarchy
