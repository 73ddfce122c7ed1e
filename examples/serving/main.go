// Serving walkthrough: run the kvccd enumeration service in-process,
// query it through the Go client, and watch the result cache turn an
// expensive enumeration into a sub-millisecond lookup.
//
// The same flow works against a standalone daemon:
//
//	go run ./cmd/kvccd -demo -addr :7474
//	curl -s localhost:7474/api/v1/enumerate \
//	     -d '{"graph":"demo","k":5}' | jq . | head
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"kvcc/gen"
	"kvcc/server"
)

func main() {
	// A planted-community graph: eight dense blocks chained by 2-vertex
	// overlaps, plus noise. k = 5 recovers the blocks; the 2-vertex
	// overlaps survive in the results because k-VCCs may share up to k-1
	// vertices (Property 1 of the paper).
	g, communities := gen.Planted(gen.PlantedConfig{
		Communities: 8, MinSize: 12, MaxSize: 20, IntraProb: 0.7,
		ChainOverlap: 2, ChainEvery: 2, BridgeEdges: 6,
		NoiseVertices: 120, NoiseDegree: 3, Seed: 1,
	})
	fmt.Printf("graph: %d vertices, %d edges, %d planted communities\n\n",
		g.NumVertices(), g.NumEdges(), len(communities))

	// Start the service on an ephemeral port, exactly as cmd/kvccd does.
	srv := server.New(server.Config{CacheSize: 32})
	srv.AddGraph("demo", g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpServer := &http.Server{Handler: srv.Handler()}
	go httpServer.Serve(ln)
	defer httpServer.Close()

	client := server.NewClient("http://" + ln.Addr().String())
	ctx := context.Background()

	// First query: a cache miss that runs the full KVCC-ENUM pipeline.
	start := time.Now()
	first, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: "demo", K: 5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold query:   %d components in %v (cached=%v)\n",
		len(first.Components), time.Since(start).Round(time.Microsecond), first.Cached)

	// Repeat query: served from the LRU cache without re-enumerating.
	start = time.Now()
	second, err := client.Enumerate(ctx, server.EnumerateRequest{Graph: "demo", K: 5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("warm query:   %d components in %v (cached=%v)\n\n",
		len(second.Components), time.Since(start).Round(time.Microsecond), second.Cached)

	// The derived endpoints reuse the same cached result. A vertex on a
	// chain overlap belongs to two components at once.
	overlap, err := client.Overlap(ctx, server.OverlapRequest{Graph: "demo", K: 5})
	if err != nil {
		panic(err)
	}
	shared := int64(-1)
	for i := range overlap.Matrix {
		for j := range overlap.Matrix {
			if i != j && overlap.Matrix[i][j] > 0 && shared < 0 {
				fmt.Printf("components %d and %d share %d vertices (< k, per Property 1)\n",
					i, j, overlap.Matrix[i][j])
				for _, v := range first.Components[i].Vertices {
					for _, w := range first.Components[j].Vertices {
						if v == w {
							shared = v
						}
					}
				}
			}
		}
	}
	if shared >= 0 {
		containing, err := client.ComponentsContaining(ctx,
			server.ContainingRequest{Graph: "demo", K: 5, Vertex: shared})
		if err != nil {
			panic(err)
		}
		fmt.Printf("vertex %d is in components %v\n\n", shared, containing.Indices)
	}

	// Operational stats: one enumeration amortized over every query.
	stats, err := client.Stats(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("server ran %d enumeration(s) for %d queries: cache hits=%d misses=%d\n",
		stats.Enumerations.Started,
		stats.Cache.Hits+stats.Cache.Misses,
		stats.Cache.Hits, stats.Cache.Misses)
}
