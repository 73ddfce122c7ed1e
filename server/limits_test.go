package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestClientCancelStatusAndStats: a caller hanging up mid-enumeration is
// not a server fault — it maps to 499 on the wire and stays out of the
// error counter.
func TestClientCancelStatusAndStats(t *testing.T) {
	s := testServer(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel, then hold the flight open: the waiting caller must take the
	// ctx.Done arm of its select, never the (still pending) completion.
	release := make(chan struct{})
	testHookEnumerateStarted = func() { cancel(); <-release }
	t.Cleanup(func() { testHookEnumerateStarted = nil })
	defer close(release)

	_, err := s.Enumerate(ctx, EnumerateRequest{Graph: "fig2", K: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("enumerate after hangup: %v, want context.Canceled", err)
	}
	if got := statusFor(err); got != statusClientClosedRequest {
		t.Fatalf("statusFor(Canceled) = %d, want %d", got, statusClientClosedRequest)
	}
	if stats := s.Stats(); stats.Enumerations.Errors != 0 {
		t.Fatalf("client cancel counted as %d server errors", stats.Enumerations.Errors)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("statusFor(DeadlineExceeded) = %d, want 504", got)
	}
}

// TestHTTPOversizedBodyRejected: a query body over the 1 MiB cap draws
// 413, not a json decode 400.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"graph":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+PathEnumerate, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPMaxSizeEditBatchAccepted: a maximal legal batch — maxEditBatch
// inserts with wide labels, well past the old 1 MiB body cap — must be
// accepted, because the edits route sizes its cap from maxEditBatch.
func TestHTTPMaxSizeEditBatchAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("applies a 65536-edge batch")
	}
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inserts := make([][2]int64, maxEditBatch)
	base := int64(1) << 40
	for i := range inserts {
		inserts[i] = [2]int64{base + int64(i), base + int64(i) + 1}
	}
	payload, err := json.Marshal(EditsRequest{Inserts: inserts})
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) <= maxRequestBytes {
		t.Fatalf("batch JSON is %d bytes; test needs it past the %d-byte query cap", len(payload), maxRequestBytes)
	}
	if len(payload) > maxEditsRequestBytes {
		t.Fatalf("maximal legal batch is %d bytes, over the edits cap %d — cap is mis-sized", len(payload), maxEditsRequestBytes)
	}

	resp, err := http.Post(ts.URL+PathGraphs+"/fig2/edits", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 for a maximal legal batch", resp.StatusCode)
	}
	var er EditsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.AppliedInserts != maxEditBatch {
		t.Fatalf("applied %d inserts, want %d", er.AppliedInserts, maxEditBatch)
	}
}

// TestHTTPOversizedEditBatchRejected: the edits cap is finite — a body
// past maxEditsRequestBytes still draws 413.
func TestHTTPOversizedEditBatchRejected(t *testing.T) {
	s := testServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sb strings.Builder
	sb.WriteString(`{"inserts":[`)
	for sb.Len() <= maxEditsRequestBytes {
		fmt.Fprintf(&sb, "[1,2],")
	}
	sb.WriteString("[1,2]]}")
	resp, err := http.Post(ts.URL+PathGraphs+"/fig2/edits", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
