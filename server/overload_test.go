package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestOverloadBurstShedsWithRetryAfter floods a deliberately tiny server
// with a burst an order of magnitude past its capacity and asserts the
// overload contract end to end: some requests are admitted and answered,
// the rest shed with 429 + Retry-After, admitted results for the same
// query are identical, nothing deadlocks, and the goroutine count stays
// bounded by capacity + queue rather than by the burst. Run under -race
// in CI, this is also the admission layer's concurrency test.
func TestOverloadBurstShedsWithRetryAfter(t *testing.T) {
	slowEnumerations(t, 40*time.Millisecond)
	s := testServer(Config{
		MaxInflight:      1,
		MaxInflightCheap: 2,
		AdmissionQueue:   2,
		QueueTimeout:     2 * time.Second,
		ShedLatency:      -1, // deterministic: only queue-full sheds
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	const burst = 40 // 10x the cheap-class capacity + queue
	type outcome struct {
		status     int
		retryAfter string
		body       []byte
		k          int
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			k := 2 + i%3
			payload, _ := json.Marshal(EnumerateRequest{Graph: "fig2", K: k})
			resp, err := http.Post(ts.URL+PathEnumerate, "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			outcomes[i] = outcome{
				status:     resp.StatusCode,
				retryAfter: resp.Header.Get("Retry-After"),
				body:       body,
				k:          k,
			}
		}(i)
	}
	close(start)
	wg.Wait()

	served, shed := 0, 0
	componentsByK := make(map[int]string)
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			served++
			var er EnumerateResponse
			if err := json.Unmarshal(o.body, &er); err != nil {
				t.Fatalf("request %d: bad 200 body: %v", i, err)
			}
			comps, _ := json.Marshal(er.Components)
			if prev, ok := componentsByK[o.k]; ok && prev != string(comps) {
				t.Fatalf("k=%d answered differently across admitted requests:\n%s\nvs\n%s", o.k, prev, comps)
			}
			componentsByK[o.k] = string(comps)
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" || o.retryAfter == "0" {
				t.Fatalf("request %d: 429 without a Retry-After hint", i)
			}
		default:
			t.Fatalf("request %d: unexpected status %d: %s", i, o.status, o.body)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("burst split served=%d shed=%d, want both > 0", served, shed)
	}

	stats := s.Stats()
	if stats.Admission == nil {
		t.Fatal("StatsResponse.Admission missing")
	}
	if stats.Admission.Shed == 0 || stats.Admission.ShedQueueFull == 0 {
		t.Fatalf("admission stats = %+v, want shed counters > 0", stats.Admission)
	}
	if stats.Admission.Admitted == 0 {
		t.Fatalf("admission stats = %+v, want admitted > 0", stats.Admission)
	}

	// Bounded goroutines: after the burst settles, we must be near the
	// baseline again — a leak of one goroutine per shed request would show
	// up as ~burst extra.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+10 {
		t.Fatalf("goroutines after burst = %d, baseline %d: leak", got, baseline)
	}
}

// TestDegradedServesPreviousGeneration: when the remaining deadline budget
// cannot fit the estimated enumeration cost, the server answers from the
// previous generation's cached result, marked degraded, instead of
// starting work it will abandon.
func TestDegradedServesPreviousGeneration(t *testing.T) {
	slowEnumerations(t, 60*time.Millisecond)
	s := testServer(Config{})
	ctx := context.Background()

	first, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded {
		t.Fatal("fresh result claims degraded")
	}

	// The edit invalidates k=3 (both endpoints sit in a K5, so every
	// level up to 4 is affected), parking the old result as a seed.
	if _, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: [][2]int64{{0, 5}}}); err != nil {
		t.Fatal(err)
	}

	// A 5ms budget cannot fit the ~60ms estimate the first query taught
	// the cost model, so the pre-flight budget check degrades immediately.
	resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, TimeoutMillis: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatalf("under-budget query was not degraded: %+v", resp)
	}
	a, _ := json.Marshal(first.Components)
	b, _ := json.Marshal(resp.Components)
	if !bytes.Equal(a, b) {
		t.Fatalf("degraded response differs from the previous generation:\n%s\nvs\n%s", a, b)
	}
	if got := s.Stats().Admission.Degraded; got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}

	// With a healthy budget the same query recomputes against the edited
	// graph (the new K5∪{edge} structure changes nothing at k=3's
	// component count, but the response must not be marked degraded).
	fresh, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Degraded || fresh.Cached {
		t.Fatalf("healthy-budget query = degraded %v cached %v, want fresh compute", fresh.Degraded, fresh.Cached)
	}
}

// TestDegradedFallbackOnShed: the flight leader losing the expensive-
// permit race falls back to the previous generation rather than failing
// the request.
func TestDegradedFallbackOnShed(t *testing.T) {
	s := testServer(Config{
		MaxInflight:    1,
		AdmissionQueue: 1,
		QueueTimeout:   30 * time.Millisecond,
		ShedLatency:    -1,
	})
	ctx := context.Background()
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: [][2]int64{{0, 5}}}); err != nil {
		t.Fatal(err)
	}

	// Hold the only expensive permit so the flight leader sheds at the
	// queue deadline.
	release, err := s.adm.acquire(context.Background(), classExpensive)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if err != nil {
		t.Fatalf("shed flight without degraded fallback: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("response not marked degraded: %+v", resp)
	}

	// A query with no previous generation to fall back on surfaces the
	// overload itself.
	_, err = s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 4, Measure: "kecc"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed flight with no fallback: err = %v, want ErrOverloaded", err)
	}
}

func TestTimeoutClampAndValidation(t *testing.T) {
	s := testServer(Config{RequestTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, TimeoutMillis: -7}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative timeout_ms: err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, TimeoutMillis: 3_600_000}); err != nil {
		t.Fatalf("clamped request must still serve: %v", err)
	}
	if got := s.Stats().Admission.TimeoutsClamped; got != 1 {
		t.Fatalf("timeoutsClamped = %d, want 1", got)
	}
	// Within the ceiling: no clamp.
	if _, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3, TimeoutMillis: 20}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Admission.TimeoutsClamped; got != 1 {
		t.Fatalf("timeoutsClamped after in-range timeout = %d, want still 1", got)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	resp, err = http.Get(ts.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	payload, _ := json.Marshal(EnumerateRequest{Graph: "fig2", K: 3})
	resp, err = http.Post(ts.URL+PathEnumerate, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("enumerate while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection has no Retry-After")
	}
	if got := s.Stats().Admission.ShedDraining; got == 0 {
		t.Fatal("shedDraining counter not ticked")
	}
}

func TestQuotaOverHTTPPerAPIKey(t *testing.T) {
	s := testServer(Config{QuotaRPS: 0.001, QuotaBurst: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(key string) int {
		payload, _ := json.Marshal(EnumerateRequest{Graph: "fig2", K: 3})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+PathEnumerate, bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("quota rejection without Retry-After")
		}
		return resp.StatusCode
	}

	for i := 0; i < 2; i++ {
		if got := do("tenant-a"); got != http.StatusOK {
			t.Fatalf("tenant-a request %d = %d, want 200", i, got)
		}
	}
	if got := do("tenant-a"); got != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over burst = %d, want 429", got)
	}
	// A different key has its own bucket; so does the anonymous per-graph
	// fallback.
	if got := do("tenant-b"); got != http.StatusOK {
		t.Fatalf("tenant-b = %d, want 200", got)
	}
	if got := do(""); got != http.StatusOK {
		t.Fatalf("anonymous = %d, want 200", got)
	}
	if got := s.Stats().Admission.QuotaRejections; got != 1 {
		t.Fatalf("quotaRejections = %d, want 1", got)
	}
}

func TestEditsIdempotencyKey(t *testing.T) {
	s := testServer(Config{})
	ctx := context.Background()
	graft := [][2]int64{{100, 101}, {100, 102}, {101, 102}}

	first, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: graft, IdempotencyKey: "batch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed || first.AppliedInserts != 3 {
		t.Fatalf("first keyed batch = %+v, want 3 applied, not replayed", first)
	}

	retry, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: graft, IdempotencyKey: "batch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Replayed {
		t.Fatalf("retried keyed batch was re-applied: %+v", retry)
	}
	if retry.Version != first.Version || retry.AppliedInserts != first.AppliedInserts {
		t.Fatalf("replay = %+v, want the original response %+v", retry, first)
	}
	if got := s.Stats().Admission.IdempotentReplays; got != 1 {
		t.Fatalf("idempotentReplays = %d, want 1", got)
	}

	// A different key applies normally (and is a no-op graph-wise, since
	// the edges already exist — versions must not move).
	second, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: graft, IdempotencyKey: "batch-2"})
	if err != nil {
		t.Fatal(err)
	}
	if second.Replayed || second.AppliedInserts != 0 || second.Version != first.Version {
		t.Fatalf("fresh key on existing edges = %+v, want 0 applied at version %d", second, first.Version)
	}
}

func TestIdempotencyKeySurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, CheckpointEvery: 64}
	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddGraph("fig2", twoCliques())
	graft := [][2]int64{{100, 101}, {100, 102}, {101, 102}}
	first, err := a.Edits(context.Background(), EditsRequest{Graph: "fig2", Inserts: graft, IdempotencyKey: "batch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Persisted {
		t.Fatalf("keyed batch not persisted: %+v", first)
	}
	// No Close: the first server "dies" holding only what it fsync'd.

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	retry, err := b.Edits(context.Background(), EditsRequest{Graph: "fig2", Inserts: graft, IdempotencyKey: "batch-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Replayed {
		t.Fatalf("pre-crash key re-applied after recovery: %+v", retry)
	}
	if retry.Version != first.Version {
		t.Fatalf("replayed version %d, want %d", retry.Version, first.Version)
	}
	// The recovered graph must not have been double-edited.
	infos := b.Graphs()
	if len(infos) != 1 || infos[0].Version != first.Version {
		t.Fatalf("recovered graph %+v, want version %d", infos, first.Version)
	}
}

// TestEditBacklogSheds: edits are the scarcest class — a writer storm
// bounded-queues behind the single permit and then sheds instead of
// piling up on the edit mutex.
func TestEditBacklogSheds(t *testing.T) {
	s := testServer(Config{
		AdmissionQueue: 1,
		QueueTimeout:   40 * time.Millisecond,
	})
	ctx := context.Background()

	// Hold the edit permit hostage.
	release, err := s.adm.acquire(ctx, classEdit)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := s.Edits(ctx, EditsRequest{Graph: "fig2",
				Inserts: [][2]int64{{int64(1000 + i), int64(2000 + i)}}})
			results <- err
		}(i)
	}
	sheds := 0
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("edit under backlog: err = %v, want ErrOverloaded", err)
			}
			sheds++
		}
	}
	// One waiter fits the queue (then times out, since the permit never
	// frees); the others shed queue-full. All three fail here.
	if sheds != 3 {
		t.Fatalf("%d of 3 edits shed, want 3 (permit was never released)", sheds)
	}
	release()

	// With the permit back, edits flow again.
	if _, err := s.Edits(ctx, EditsRequest{Graph: "fig2", Inserts: [][2]int64{{5000, 5001}}}); err != nil {
		t.Fatalf("edit after release: %v", err)
	}
}

// TestStatsAdmissionShape asserts the always-on admission fields surface
// in /api/v1/stats with sane values even on an idle server.
func TestStatsAdmissionShape(t *testing.T) {
	s := testServer(Config{MaxInflight: 3, MaxInflightCheap: 7, AdmissionQueue: 5})
	st := s.Stats().Admission
	if st == nil {
		t.Fatal("no admission stats")
	}
	if st.MaxInflight != 3 || st.MaxInflightCheap != 7 || st.QueueDepth != 5 {
		t.Fatalf("admission config echo = %+v", st)
	}
	if st.InflightExpensive != 0 || st.QueuedNow != 0 || st.Draining {
		t.Fatalf("idle server reports activity: %+v", st)
	}
	if st.FailpointTrips != 0 {
		t.Fatalf("failpoint trips on a failpoint-free build: %d", st.FailpointTrips)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s.Stats()); err != nil {
		t.Fatalf("stats must serialize: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"admission"`)) {
		t.Fatal("stats JSON lacks the admission block")
	}
}
