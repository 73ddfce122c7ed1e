package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal Go client for the kvccd HTTP API. It is used by the
// integration tests, the serving example and the kvccbench load driver;
// external consumers can use it as-is.
//
// Resilience is opt-in and safe by construction: with Retry set, only
// idempotent calls are ever retried — every read, and Edits only when the
// request carries an IdempotencyKey (the server's replay table then makes
// the retry at-most-once). RemoveGraph is never retried: a retry of a
// success observes 404 and would misreport. Backoff is exponential with
// jitter and honors the server's Retry-After hint on shed (429/503)
// responses.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7474".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Per-request deadlines
	// come from the context passed to each call.
	HTTPClient *http.Client
	// APIKey, when set, is sent as the X-API-Key header — the identity
	// the server's per-tenant quotas charge requests to.
	APIKey string
	// Retry enables automatic retries of idempotent calls. Nil keeps the
	// historical single-attempt behavior.
	Retry *RetryPolicy
	// HedgeDelay, when positive, arms hedged reads: an idempotent call
	// still unanswered after this long launches one duplicate request,
	// and the first response wins. Hedging trades duplicate server work
	// for tail latency; leave zero unless the workload needs it.
	HedgeDelay time.Duration
}

// RetryPolicy shapes the client's backoff between retry attempts.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// Values below 2 disable retries. Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Default 5s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// delay computes the backoff before retry number attempt (1-based),
// jittered to desynchronize a thundering herd, and never shorter than the
// server's own Retry-After hint when the previous failure carried one.
func (p RetryPolicy) delay(attempt int, lastErr error) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64())) // [0.5d, 1.5d)
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

// APIError is the error the client returns for any non-200 API response.
// Status distinguishes "back off and retry" (429, Retry-After set) from
// hard failures, so callers can branch without string matching.
type APIError struct {
	Status     int           // HTTP status code
	StatusText string        // full status line text, e.g. "429 Too Many Requests"
	Message    string        // the server's JSON error body, when it sent one
	RetryAfter time.Duration // parsed Retry-After hint; 0 when absent
	method     string
	path       string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s", e.StatusText, e.Message)
	}
	return fmt.Sprintf("server: %s %s: status %s", e.method, e.path, e.StatusText)
}

// NewClient returns a Client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Enumerate requests all k-VCCs of a named graph.
func (c *Client) Enumerate(ctx context.Context, req EnumerateRequest) (*EnumerateResponse, error) {
	var resp EnumerateResponse
	if err := c.post(ctx, PathEnumerate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ComponentsContaining requests the k-VCCs holding one vertex label.
func (c *Client) ComponentsContaining(ctx context.Context, req ContainingRequest) (*ContainingResponse, error) {
	var resp ContainingResponse
	if err := c.post(ctx, PathContaining, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Overlap requests the pairwise component overlap matrix.
func (c *Client) Overlap(ctx context.Context, req OverlapRequest) (*OverlapResponse, error) {
	var resp OverlapResponse
	if err := c.post(ctx, PathOverlap, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EnumerateBatch requests the k-VCCs at several values of k in one call.
func (c *Client) EnumerateBatch(ctx context.Context, req BatchEnumerateRequest) (*BatchEnumerateResponse, error) {
	var resp BatchEnumerateResponse
	if err := c.post(ctx, PathEnumerateBatch, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Hierarchy requests the per-level summary of a graph's cohesion
// hierarchy, waiting (within the request timeout) for the server's index
// build to finish.
func (c *Client) Hierarchy(ctx context.Context, req HierarchyRequest) (*HierarchyResponse, error) {
	var resp HierarchyResponse
	if err := c.post(ctx, PathHierarchy, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Cohesion requests the structural cohesion (and nesting chain) of one or
// more vertex labels.
func (c *Client) Cohesion(ctx context.Context, req CohesionRequest) (*CohesionResponse, error) {
	var resp CohesionResponse
	if err := c.post(ctx, PathCohesion, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Edits applies a batch of edge insertions and deletions to a named
// graph. The server applies the batch atomically, bumps the graph's
// version, keeps serving cached results at connectivity levels the batch
// provably did not touch, and schedules a background hierarchy-index
// repair; the response details exactly that split.
func (c *Client) Edits(ctx context.Context, req EditsRequest) (*EditsResponse, error) {
	if req.Graph == "" {
		return nil, fmt.Errorf("server: edits request needs a graph name")
	}
	// A keyed batch is safe to retry — the server's replay table applies
	// it at most once. An unkeyed batch is not: a retry of an
	// acknowledged-but-lost response could re-apply edits.
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp EditsResponse
	if err := c.call(ctx, http.MethodPost, GraphEditsPath(req.Graph), payload,
		req.IdempotencyKey != "", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Profile fetches a graph's structural profile (degeneracy, core
// histogram, degree/component distributions, recommended k range), with
// the per-vertex (core, λ, κ) triples when req.Vertices is non-empty.
func (c *Client) Profile(ctx context.Context, req ProfileRequest) (*ProfileResponse, error) {
	if req.Graph == "" {
		return nil, fmt.Errorf("server: profile request needs a graph name")
	}
	path := GraphProfilePath(req.Graph)
	q := url.Values{}
	if len(req.Vertices) > 0 {
		parts := make([]string, len(req.Vertices))
		for i, v := range req.Vertices {
			parts[i] = strconv.FormatInt(v, 10)
		}
		q.Set("vertices", strings.Join(parts, ","))
	}
	if req.TimeoutMillis > 0 {
		q.Set("timeout_ms", strconv.FormatInt(req.TimeoutMillis, 10))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp ProfileResponse
	if err := c.get(ctx, path, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RemoveGraph unregisters a named graph, dropping its cached results and
// cancelling any background index build on the server.
func (c *Client) RemoveGraph(ctx context.Context, name string) error {
	// Never retried: a retry of a successful removal sees 404 and would
	// report failure for an operation that in fact succeeded.
	var resp RemoveGraphResponse
	return c.call(ctx, http.MethodDelete, GraphPath(name), nil, false, &resp)
}

// Stats fetches the server's operational snapshot.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get(ctx, PathStats, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Graphs lists the graphs loaded into the server.
func (c *Client) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var resp []GraphInfo
	if err := c.get(ctx, PathGraphs, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// Health reports whether the server answers its health check.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+PathHealth, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: health check: status %s", resp.Status)
	}
	return nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post issues one idempotent read-style POST. All the query endpoints go
// through here; Edits builds its call directly because its idempotence
// depends on the request.
func (c *Client) post(ctx context.Context, path string, body, dst any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.call(ctx, http.MethodPost, path, payload, true, dst)
}

func (c *Client) get(ctx context.Context, path string, dst any) error {
	return c.call(ctx, http.MethodGet, path, nil, true, dst)
}

// call runs one API exchange under the client's resilience policy: hedged
// (idempotent calls, when armed) and retried with jittered exponential
// backoff that honors the server's Retry-After hint. Non-idempotent calls
// get exactly one attempt regardless of policy.
func (c *Client) call(ctx context.Context, method, path string, payload []byte, idempotent bool, dst any) error {
	attempts := 1
	var pol RetryPolicy
	if c.Retry != nil && idempotent {
		pol = c.Retry.withDefaults()
		attempts = pol.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(pol.delay(attempt, lastErr))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return lastErr
			}
		}
		data, err := c.exchangeHedged(ctx, method, path, payload, idempotent)
		if err == nil {
			if dst == nil {
				return nil
			}
			return json.Unmarshal(data, dst)
		}
		lastErr = err
		if !retryableError(err) {
			return err
		}
	}
	return lastErr
}

// retryableError reports whether a failed attempt is worth repeating:
// transport-level failures (connection refused, reset — the request may
// never have arrived) and explicit back-off responses. Context
// cancellation and every other API status are final.
func retryableError(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
			return true
		}
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// exchangeHedged wraps exchange with tail-latency hedging: if the primary
// request is still unanswered after HedgeDelay, launch one duplicate and
// take whichever responds first (the loser is cancelled). Responses are
// raw bytes here precisely so two racing attempts never decode into the
// caller's dst concurrently.
func (c *Client) exchangeHedged(ctx context.Context, method, path string, payload []byte, idempotent bool) ([]byte, error) {
	if c.HedgeDelay <= 0 || !idempotent {
		return c.exchange(ctx, method, path, payload)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the loser
	type result struct {
		data []byte
		err  error
	}
	results := make(chan result, 2) // buffered: the loser must not block
	launch := func() {
		go func() {
			data, err := c.exchange(hctx, method, path, payload)
			results <- result{data, err}
		}()
	}
	launch()
	launched := 1
	hedge := time.NewTimer(c.HedgeDelay)
	defer hedge.Stop()
	var firstErr error
	for done := 0; done < launched; {
		select {
		case r := <-results:
			done++
			if r.err == nil {
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedge.C:
			launch()
			launched++
		}
	}
	return nil, firstErr
}

// exchange performs one HTTP round trip and maps any non-200 response to
// an *APIError carrying the status, the server's error message, and the
// Retry-After hint.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte) ([]byte, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ae := &APIError{
			Status:     resp.StatusCode,
			StatusText: resp.Status,
			method:     req.Method,
			path:       req.URL.Path,
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
		var e errorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			ae.Message = e.Error
		}
		return nil, ae
	}
	return io.ReadAll(resp.Body)
}
