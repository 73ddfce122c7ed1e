// Command kvccd is the long-running k-VCC enumeration service. It loads
// one or more named edge-list graphs, serves the HTTP/JSON query API from
// the server package, and amortizes enumeration cost across queries with
// a per-graph hierarchy index, an LRU result cache, and in-flight request
// deduplication.
//
// Usage:
//
//	kvccd -graph social=social.txt -graph web=web.txt [-addr :7474]
//	      [-cache 64] [-max-k 0] [-parallel 1] [-index]
//	      [-request-timeout 30s] [-compute-timeout 5m]
//	      [-max-inflight 0] [-quota rps[:burst]] [-drain-timeout 10s]
//	      [-data-dir DIR] [-checkpoint-every 0] [-demo]
//
// -graph name=path registers an edge list under a query name and may be
// repeated; files are ingested through graphio's two-pass streaming
// loader, which builds the CSR graph in place so multi-million-edge SNAP
// exports load with bounded memory. -index precomputes the full k-VCC
// cohesion tree of every graph in the background at startup and after
// every edit batch; once ready, enumerate queries for any k are answered
// from the tree instead of running the algorithm (hierarchy, cohesion and
// profile queries build the index of any measure on demand either way).
// The tree always runs to its first empty level, so it answers every k.
// -demo registers a small generated community graph under the
// name "demo" so the server can be tried without any dataset.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kvcc/gen"
	"kvcc/graph"
	"kvcc/server"
)

// graphFlags collects repeated -graph name=path mappings.
type graphFlags map[string]string

func (g graphFlags) String() string {
	parts := make([]string, 0, len(g))
	for name, path := range g {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

func (g graphFlags) Set(value string) error {
	name, path, ok := strings.Cut(value, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", value)
	}
	if _, dup := g[name]; dup {
		return fmt.Errorf("graph %q registered twice", name)
	}
	g[name] = path
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kvccd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphs := graphFlags{}
	fs.Var(graphs, "graph", "name=path of an edge list to serve (repeatable)")
	var (
		addr            = fs.String("addr", ":7474", "listen address")
		cacheSize       = fs.Int("cache", 64, "result cache capacity (entries)")
		maxK            = fs.Int("max-k", 0, "reject queries with k above this (0 = no limit)")
		parallel        = fs.Int("parallel", 1, "enumeration worker count")
		index           = fs.Bool("index", false, "precompute the hierarchy index of every graph at startup")
		requestTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request wait ceiling; a larger client timeout_ms is clamped to it")
		computeTimeout  = fs.Duration("compute-timeout", 5*time.Minute, "per-enumeration ceiling")
		demo            = fs.Bool("demo", false, `also serve a generated community graph as "demo"`)
		dataDir         = fs.String("data-dir", "", "durable store directory: graphs survive restarts via snapshot + WAL (empty = in-memory only)")
		checkpointEvery = fs.Int("checkpoint-every", 0, "fold the WAL into a fresh snapshot after this many edit batches (0 = default 32, negative = never)")
		maxInflight     = fs.Int("max-inflight", 0, "concurrent expensive enumerations before requests queue and shed (0 = GOMAXPROCS)")
		quota           = fs.String("quota", "", "per-tenant admission quota as rps[:burst], keyed by X-API-Key (empty = no quotas)")
		drainTimeout    = fs.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM/SIGINT shutdown waits for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// flag stops at the first non-flag argument; every flag after it
	// would be dropped without a word, so refuse any leftover.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "kvccd: unexpected argument %q; every option is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	// With -data-dir, graphs may come from recovery alone — the emptiness
	// check happens after server.Open, once we know what was recovered.
	if len(graphs) == 0 && !*demo && *dataDir == "" {
		fmt.Fprintln(stderr, "kvccd: no graphs to serve; pass -graph name=path, -demo, or -data-dir")
		fs.Usage()
		return 2
	}

	quotaRPS, quotaBurst, err := parseQuota(*quota)
	if err != nil {
		fmt.Fprintln(stderr, "kvccd: -quota:", err)
		return 2
	}

	cfg := server.Config{
		CacheSize:       *cacheSize,
		MaxK:            *maxK,
		Parallelism:     *parallel,
		RequestTimeout:  *requestTimeout,
		ComputeTimeout:  *computeTimeout,
		BuildIndex:      *index,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		MaxInflight:     *maxInflight,
		QuotaRPS:        quotaRPS,
		QuotaBurst:      quotaBurst,
	}
	// With -data-dir, Open recovers every previously served graph from its
	// snapshot + WAL before any file ingestion: a restart serves the exact
	// pre-crash state without re-reading edge lists. Graphs re-registered
	// by -graph below simply replace their recovered versions.
	srv, err := server.Open(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "kvccd:", err)
		return 1
	}
	recovered := make(map[string]bool)
	for _, info := range srv.Graphs() {
		recovered[info.Name] = true
	}
	for name, path := range graphs {
		if err := srv.LoadGraphFile(name, path); err != nil {
			fmt.Fprintln(stderr, "kvccd:", err)
			return 1
		}
	}
	if *demo && !recovered["demo"] {
		srv.AddGraph("demo", demoGraph())
	}
	if len(srv.Graphs()) == 0 {
		fmt.Fprintf(stderr, "kvccd: nothing to serve: no -graph/-demo flags and the data dir %q holds no recoverable graphs\n", *dataDir)
		return 2
	}
	for _, info := range srv.Graphs() {
		how := ""
		if recovered[info.Name] {
			how = " (recovered from data dir)"
		}
		fmt.Fprintf(stdout, "kvccd: serving %q: %d vertices, %d edges, version %d%s\n",
			info.Name, info.Vertices, info.Edges, info.Version, how)
	}

	httpServer := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound header reads and idle keep-alives so slow or stalled
		// clients cannot pin connections open; per-request work is
		// bounded separately by the server's request timeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(stdout, "kvccd: listening on %s\n", *addr)

	// Graceful shutdown: the first SIGTERM/SIGINT flips the server into
	// draining (new admissions shed with 503, healthz reports draining so
	// load balancers stop routing here), then in-flight requests get up to
	// -drain-timeout to finish before the listener is torn down and the
	// stores are closed. A second signal falls back to the runtime's
	// default handling and kills the process immediately.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "kvccd:", err)
			return 1
		}
		return 0
	case <-sigCtx.Done():
	}
	stop()
	fmt.Fprintf(stdout, "kvccd: shutdown signal received; draining for up to %s\n", *drainTimeout)
	srv.BeginDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(stderr, "kvccd: drain timeout exceeded; closing with requests in flight:", err)
		httpServer.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "kvccd:", err)
		return 1
	}
	fmt.Fprintln(stdout, "kvccd: shutdown complete")
	return 0
}

// parseQuota parses the -quota flag: "rps" or "rps:burst". An empty value
// disables quotas.
func parseQuota(raw string) (rps float64, burst int, err error) {
	if raw == "" {
		return 0, 0, nil
	}
	rpsPart, burstPart, hasBurst := strings.Cut(raw, ":")
	rps, err = strconv.ParseFloat(rpsPart, 64)
	if err != nil || rps <= 0 {
		return 0, 0, fmt.Errorf("want rps[:burst] with rps > 0, got %q", raw)
	}
	if hasBurst {
		burst, err = strconv.Atoi(burstPart)
		if err != nil || burst <= 0 {
			return 0, 0, fmt.Errorf("want rps[:burst] with burst > 0, got %q", raw)
		}
	}
	return rps, burst, nil
}

// demoGraph builds a deterministic planted-community graph: eight dense
// blocks chained by sub-k overlaps plus background noise, the structure
// k-VCC enumeration is designed to recover.
func demoGraph() *graph.Graph {
	g, _ := gen.Planted(gen.PlantedConfig{
		Communities:   8,
		MinSize:       12,
		MaxSize:       20,
		IntraProb:     0.7,
		ChainOverlap:  2,
		ChainEvery:    2,
		BridgeEdges:   6,
		NoiseVertices: 120,
		NoiseDegree:   3,
		Seed:          1,
	})
	return g
}
