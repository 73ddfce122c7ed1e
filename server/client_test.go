package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers failures times with status, then succeeds with the
// given body.
func flakyHandler(failures int32, status int, retryAfter string, body any) (http.Handler, *atomic.Int32) {
	var calls atomic.Int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(errorResponse{Error: "synthetic overload"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}), &calls
}

func fastRetry() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestClientRetriesIdempotentReads(t *testing.T) {
	h, calls := flakyHandler(2, http.StatusTooManyRequests, "", &StatsResponse{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("read failed despite retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}
}

func TestClientDoesNotRetryHardFailures(t *testing.T) {
	h, calls := flakyHandler(10, http.StatusBadRequest, "", nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	_, err := c.Stats(context.Background())
	if err == nil {
		t.Fatal("400 response did not surface as an error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls for a 400, want 1 (no retries)", got)
	}
}

func TestClientAPIErrorCarriesRetryAfter(t *testing.T) {
	h, _ := flakyHandler(10, http.StatusTooManyRequests, "2", nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL) // no retry policy: single attempt
	_, err := c.Stats(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.RetryAfter != 2*time.Second {
		t.Fatalf("APIError = %+v, want 429 with RetryAfter 2s", ae)
	}
	if ae.Message == "" {
		t.Fatalf("APIError lost the server's message: %+v", ae)
	}
}

func TestClientEditsRetryOnlyWithKey(t *testing.T) {
	edit := EditsRequest{Graph: "g", Inserts: [][2]int64{{1, 2}}}

	// Unkeyed: exactly one attempt, even with a retry policy armed.
	h, calls := flakyHandler(10, http.StatusServiceUnavailable, "", nil)
	ts := httptest.NewServer(h)
	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	if _, err := c.Edits(context.Background(), edit); err == nil {
		t.Fatal("edit against a 503-only server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("unkeyed edit: server saw %d calls, want 1", got)
	}
	ts.Close()

	// Keyed: the replay table makes retries safe, so they happen.
	h, calls = flakyHandler(2, http.StatusServiceUnavailable, "", &EditsResponse{Graph: "g", Version: 2})
	ts = httptest.NewServer(h)
	defer ts.Close()
	c = NewClient(ts.URL)
	c.Retry = fastRetry()
	keyed := edit
	keyed.IdempotencyKey = "k-1"
	resp, err := c.Edits(context.Background(), keyed)
	if err != nil {
		t.Fatalf("keyed edit failed despite retries: %v", err)
	}
	if resp.Version != 2 {
		t.Fatalf("keyed edit response = %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("keyed edit: server saw %d calls, want 3", got)
	}
}

func TestClientRemoveGraphNeverRetries(t *testing.T) {
	h, calls := flakyHandler(10, http.StatusServiceUnavailable, "", nil)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = fastRetry()
	if err := c.RemoveGraph(context.Background(), "g"); err == nil {
		t.Fatal("remove against a 503-only server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("remove: server saw %d calls, want 1", got)
	}
}

func TestClientSendsAPIKey(t *testing.T) {
	var gotKey atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotKey.Store(r.Header.Get("X-API-Key"))
		json.NewEncoder(w).Encode(&StatsResponse{})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.APIKey = "tenant-42"
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := gotKey.Load(); got != "tenant-42" {
		t.Fatalf("server saw X-API-Key %q, want tenant-42", got)
	}
}

// TestClientRetryHonorsRetryAfterFloor: the backoff never undercuts the
// server's hint.
func TestClientRetryDelayHonorsHint(t *testing.T) {
	p := fastRetry().withDefaults()
	hinted := &APIError{Status: 429, RetryAfter: 80 * time.Millisecond}
	for attempt := 1; attempt < p.MaxAttempts; attempt++ {
		if d := p.delay(attempt, hinted); d < hinted.RetryAfter {
			t.Fatalf("attempt %d delay %s undercuts the 80ms hint", attempt, d)
		}
	}
	// Without a hint, the jittered exponential stays within [base/2, 1.5*max].
	for attempt := 1; attempt < 10; attempt++ {
		d := p.delay(attempt, errors.New("transport"))
		if d < p.BaseDelay/2 || d > p.MaxDelay*3/2 {
			t.Fatalf("attempt %d delay %s outside jitter bounds", attempt, d)
		}
	}
}

// TestClientEndToEndResilience drives a real server through a client with
// retries armed while the server sheds: every call eventually lands.
func TestClientEndToEndResilience(t *testing.T) {
	slowEnumerations(t, 20*time.Millisecond)
	s := testServer(Config{
		MaxInflight:      1,
		MaxInflightCheap: 1,
		AdmissionQueue:   1,
		QueueTimeout:     10 * time.Millisecond,
		ShedLatency:      -1,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 20, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Enumerate(context.Background(), EnumerateRequest{Graph: "fig2", K: 3})
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request %d never landed despite retries: %v", i, err)
		}
	}
}
