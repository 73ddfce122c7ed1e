package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"

	"kvcc/graph"
	"kvcc/server"
)

// Serve the paper's Fig. 2 shape — two K5s sharing two vertices — and
// query it through the HTTP client. The repeated query is answered from
// the result cache without re-running the enumeration.
func Example_client() {
	var edges [][2]int64
	for _, c := range [][]int64{{0, 1, 2, 3, 4}, {3, 4, 5, 6, 7}} {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				edges = append(edges, [2]int64{c[i], c[j]})
			}
		}
	}
	srv := server.New(server.Config{})
	srv.AddGraph("fig2", graph.FromLabeledEdges(edges))

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL)
	ctx := context.Background()

	first, _ := client.Enumerate(ctx, server.EnumerateRequest{Graph: "fig2", K: 3})
	fmt.Printf("3-VCCs: %d (cached=%v)\n", len(first.Components), first.Cached)
	for _, c := range first.Components {
		fmt.Println(c.Vertices)
	}

	second, _ := client.Enumerate(ctx, server.EnumerateRequest{Graph: "fig2", K: 3})
	fmt.Printf("repeat: cached=%v\n", second.Cached)

	containing, _ := client.ComponentsContaining(ctx, server.ContainingRequest{
		Graph: "fig2", K: 3, Vertex: 4,
	})
	fmt.Printf("vertex 4 in components: %v\n", containing.Indices)

	stats, _ := client.Stats(ctx)
	fmt.Printf("enumerations run: %d\n", stats.Enumerations.Started)
	// Output:
	// 3-VCCs: 2 (cached=false)
	// [0 1 2 3 4]
	// [3 4 5 6 7]
	// repeat: cached=true
	// vertex 4 in components: [0 1]
	// enumerations run: 1
}
