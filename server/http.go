package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// API routes served by Handler. The Client uses the same constants.
const (
	PathEnumerate      = "/api/v1/enumerate"
	PathEnumerateBatch = "/api/v1/enumerate-batch"
	PathContaining     = "/api/v1/components-containing"
	PathOverlap        = "/api/v1/overlap"
	PathHierarchy      = "/api/v1/hierarchy"
	PathCohesion       = "/api/v1/cohesion"
	PathStats          = "/api/v1/stats"
	PathGraphs         = "/api/v1/graphs"
	PathHealth         = "/healthz"
)

// GraphEditsPath returns the edits endpoint for one named graph:
// POST /api/v1/graphs/{name}/edits.
func GraphEditsPath(name string) string {
	return PathGraphs + "/" + url.PathEscape(name) + "/edits"
}

// GraphPath returns the per-graph resource path used by
// DELETE /api/v1/graphs/{name}.
func GraphPath(name string) string {
	return PathGraphs + "/" + url.PathEscape(name)
}

// GraphProfilePath returns the profile endpoint for one named graph:
// GET /api/v1/graphs/{name}/profile.
func GraphProfilePath(name string) string {
	return PathGraphs + "/" + url.PathEscape(name) + "/profile"
}

// Handler returns the HTTP API of the server:
//
//	POST /api/v1/enumerate              EnumerateRequest       -> EnumerateResponse
//	POST /api/v1/enumerate-batch        BatchEnumerateRequest  -> BatchEnumerateResponse
//	POST /api/v1/components-containing  ContainingRequest      -> ContainingResponse
//	POST /api/v1/overlap                OverlapRequest         -> OverlapResponse
//	POST /api/v1/hierarchy              HierarchyRequest       -> HierarchyResponse
//	POST /api/v1/cohesion               CohesionRequest        -> CohesionResponse
//	POST   /api/v1/graphs/{name}/edits  EditsRequest           -> EditsResponse
//	GET    /api/v1/graphs/{name}/profile?vertices=a,b&timeout_ms=n -> ProfileResponse
//	DELETE /api/v1/graphs/{name}        -> RemoveGraphResponse
//	GET  /api/v1/stats                  -> StatsResponse
//	GET  /api/v1/graphs                 -> []GraphInfo
//	GET  /healthz                       -> "ok"
//
// Errors use JSON bodies {"error": "..."} with status 400 for invalid
// parameters, 404 for unknown graphs, 413 for oversized request bodies,
// 499 for requests whose client disconnected first, 504 for request
// timeouts, and 500 otherwise.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathEnumerate, func(w http.ResponseWriter, r *http.Request) {
		var req EnumerateRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.Enumerate(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("POST "+PathEnumerateBatch, func(w http.ResponseWriter, r *http.Request) {
		var req BatchEnumerateRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.EnumerateBatch(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("POST "+PathHierarchy, func(w http.ResponseWriter, r *http.Request) {
		var req HierarchyRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.Hierarchy(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("POST "+PathCohesion, func(w http.ResponseWriter, r *http.Request) {
		var req CohesionRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.Cohesion(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("POST "+PathContaining, func(w http.ResponseWriter, r *http.Request) {
		var req ContainingRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.ComponentsContaining(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("POST "+PathOverlap, func(w http.ResponseWriter, r *http.Request) {
		var req OverlapRequest
		if !decodeJSON(w, r, &req, maxRequestBytes) {
			return
		}
		resp, err := s.Overlap(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("GET "+PathStats, func(w http.ResponseWriter, r *http.Request) {
		respond(w, s.Stats(), nil)
	})
	mux.HandleFunc("GET "+PathGraphs, func(w http.ResponseWriter, r *http.Request) {
		respond(w, s.Graphs(), nil)
	})
	mux.HandleFunc("POST "+PathGraphs+"/{name}/edits", func(w http.ResponseWriter, r *http.Request) {
		var req EditsRequest
		if !decodeJSON(w, r, &req, maxEditsRequestBytes) {
			return
		}
		name := r.PathValue("name")
		if req.Graph != "" && req.Graph != name {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("body graph %q does not match path graph %q", req.Graph, name))
			return
		}
		req.Graph = name
		resp, err := s.Edits(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("GET "+PathGraphs+"/{name}/profile", func(w http.ResponseWriter, r *http.Request) {
		req := ProfileRequest{Graph: r.PathValue("name")}
		q := r.URL.Query()
		if raw := q.Get("vertices"); raw != "" {
			vs, err := parseVertexList(raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			req.Vertices = vs
		}
		if raw := q.Get("timeout_ms"); raw != "" {
			ms, err := strconv.ParseInt(raw, 10, 64)
			if err != nil || ms < 0 {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("invalid timeout_ms %q", raw))
				return
			}
			req.TimeoutMillis = ms
		}
		resp, err := s.Profile(r.Context(), req)
		respond(w, resp, err)
	})
	mux.HandleFunc("DELETE "+PathGraphs+"/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !s.RemoveGraph(name) {
			writeError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownGraph, name))
			return
		}
		respond(w, RemoveGraphResponse{Graph: name, Removed: true}, nil)
	})
	mux.HandleFunc("GET "+PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A draining server reports unhealthy so load balancers stop
		// routing to it while in-flight requests finish.
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// Tenant attribution wraps every route: the X-API-Key header (when
	// present) becomes the identity per-tenant quotas charge requests to.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key := r.Header.Get("X-API-Key"); key != "" {
			r = r.WithContext(WithTenant(r.Context(), key))
		}
		mux.ServeHTTP(w, r)
	})
}

// maxRequestBytes caps query request bodies; those request types are a
// handful of small fields, so 1 MiB is generous while keeping one client
// from buffering arbitrary amounts of memory server-side.
//
// The edits route needs its own cap: a legal batch holds maxEditBatch
// edges, and one edge costs up to 46 bytes of JSON ("[l,l]," with two
// full-width int64 literals) — far past 1 MiB. Size the cap from the
// batch limit (rounded up to 64 bytes per edit for whitespace and field
// framing) so every batch the server would accept also fits the body cap,
// and only bodies that would be rejected anyway get cut off early.
const (
	maxRequestBytes      = 1 << 20
	maxEditsRequestBytes = 64*maxEditBatch + maxRequestBytes
)

// parseVertexList parses the comma-separated vertex labels of the profile
// endpoint's "vertices" query parameter.
func parseVertexList(raw string) ([]int64, error) {
	parts := strings.Split(raw, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid vertex %q in vertices list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// MaxBytesReader tripping is its own condition — the request was
		// well-formed but too large — and gets the status that says so.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %v", err))
		return false
	}
	return true
}

func respond(w http.ResponseWriter, body any, err error) {
	if err != nil {
		// A shed request carries the server's backoff hint as a standard
		// Retry-After header (whole seconds, rounded up) so any HTTP
		// client — not just this package's — can honor it.
		var oe *OverloadError
		if errors.As(err, &oe) && oe.RetryAfter > 0 {
			secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// statusClientClosedRequest is the (nginx-coined) status for a request
// whose client went away before the response: not a timeout the server
// hit, so 504 would misattribute it, and there is no standard code.
const statusClientClosedRequest = 499

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		// Shed by admission control: 429 asks the client to back off and
		// retry here; a draining server answers 503 — it is going away,
		// and the retry belongs on another replica.
		var oe *OverloadError
		if errors.As(err, &oe) && oe.Draining {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
