package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control: the overload boundary of the server. Every request
// passes through here before it can spend server resources, descending an
// admission ladder that mirrors the serving ladder:
//
//  1. drain check — a server shutting down refuses new work with 503;
//  2. per-tenant token bucket — one hot client cannot starve the rest;
//  3. cost-classed concurrency limit — cheap requests (cache/index reads,
//     stats, derived post-processing) share a wide limiter whose only job
//     is bounding goroutines, while expensive work (cold enumerations)
//     and edits each get a narrow limiter sized to the hardware;
//  4. bounded queue with a queue deadline — a contended class admits a
//     bounded number of waiters for a bounded time, then sheds with 429 +
//     Retry-After rather than queuing unboundedly;
//  5. adaptive breaker — when the p95 queue wait of the expensive class
//     exceeds Config.ShedLatency, new arrivals are shed before queueing
//     (the fast path stays open, so the breaker self-heals as soon as
//     permits free up).
//
// A shed expensive request is not necessarily an error: the serving path
// may still answer it from a previous-generation cached result marked
// degraded (see Server.result).

// ErrOverloaded is the sentinel matched by errors.Is for every admission
// rejection: queue full, queue deadline, adaptive shed, quota exceeded,
// or draining. The concrete *OverloadError carries the retry hint.
var ErrOverloaded = errors.New("server: overloaded")

// OverloadError reports an admission rejection. The HTTP layer maps it to
// 429 Too Many Requests (503 Service Unavailable while draining) and
// emits RetryAfter as a Retry-After header; the Client honors it when
// backing off.
type OverloadError struct {
	// Reason is the admission rung that rejected the request: "queue-full",
	// "queue-timeout", "queue-latency", "quota" or "draining".
	Reason string
	// RetryAfter is the server's backoff hint (rounded up to whole seconds
	// on the wire; zero means "no hint").
	RetryAfter time.Duration
	// Draining marks a rejection due to graceful shutdown: the server is
	// going away, so the right status is 503 and the right client move is
	// another replica, not a retry here.
	Draining bool
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%s): retry after %s", e.Reason, e.RetryAfter.Round(time.Second))
}

// Is makes errors.Is(err, ErrOverloaded) match every *OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// costClass buckets requests by the resources they can consume. The class
// is decided by what the request is about to do, not by its endpoint: a
// query request holds a cheap permit for its whole lifetime (bounding
// total concurrent request goroutines), and only the flight leader that
// actually runs a cold enumeration additionally takes an expensive
// permit. Edits take the edit permit, which also bounds the pile-up of
// writers behind the edit mutex.
type costClass uint8

const (
	classCheap costClass = iota
	classExpensive
	classEdit
	numCostClasses
)

func (c costClass) String() string {
	switch c {
	case classCheap:
		return "cheap"
	case classExpensive:
		return "expensive"
	case classEdit:
		return "edit"
	}
	return "unknown"
}

// classLimiter is one cost class's concurrency limiter: a channel
// semaphore of cap permits plus a bounded count of queued waiters.
type classLimiter struct {
	permits  chan struct{}
	cap      int
	maxQueue int64
	queued   atomic.Int64
}

func newClassLimiter(capacity int, maxQueue int) *classLimiter {
	l := &classLimiter{
		permits:  make(chan struct{}, capacity),
		cap:      capacity,
		maxQueue: int64(maxQueue),
	}
	for i := 0; i < capacity; i++ {
		l.permits <- struct{}{}
	}
	return l
}

// inflight returns the number of permits currently held.
func (l *classLimiter) inflight() int { return l.cap - len(l.permits) }

// admissionCounters is the mutable half of AdmissionStats, guarded by
// admission.mu.
type admissionCounters struct {
	admitted          int64
	queued            int64
	shedQueueFull     int64
	shedQueueTimeout  int64
	shedLatency       int64
	shedDraining      int64
	quotaRejections   int64
	degraded          int64
	timeoutsClamped   int64
	idempotentReplays int64
}

// admission is the server's overload boundary. One instance per Server.
type admission struct {
	classes      [numCostClasses]*classLimiter
	queueTimeout time.Duration
	shedLatency  time.Duration // <=0: adaptive breaker disabled
	quotas       *quotaTable   // nil: quotas disabled

	draining atomic.Bool

	mu sync.Mutex
	c  admissionCounters
	// waits is a ring of recent expensive-class queue waits in
	// milliseconds (fast-path admissions record 0, which is what lets the
	// breaker close again once contention clears).
	waits   [admissionWaitWindow]float64
	waitPos int
	waitLen int
	// serviceMS is an EWMA of enumeration latency across all graphs — the
	// input to Retry-After hints. estimates refines it per (graph,
	// measure) for budget checks.
	serviceMS float64
	estimates map[string]float64
}

// admissionWaitWindow sizes the queue-wait percentile window. 256 recent
// samples: small enough to sort on demand, long enough that one outlier
// cannot trip the breaker.
const admissionWaitWindow = 256

func newAdmission(cfg Config) *admission {
	a := &admission{
		queueTimeout: cfg.QueueTimeout,
		shedLatency:  cfg.ShedLatency,
		estimates:    make(map[string]float64),
	}
	a.classes[classCheap] = newClassLimiter(cfg.MaxInflightCheap, cfg.AdmissionQueue)
	a.classes[classExpensive] = newClassLimiter(cfg.MaxInflight, cfg.AdmissionQueue)
	// Edits serialize on the server's edit mutex anyway; the permit bounds
	// how many writers may pile up behind it before new ones are shed.
	a.classes[classEdit] = newClassLimiter(1, cfg.AdmissionQueue)
	if cfg.QuotaRPS > 0 {
		burst := cfg.QuotaBurst
		if burst <= 0 {
			burst = int(2*cfg.QuotaRPS) + 1
		}
		a.quotas = newQuotaTable(cfg.QuotaRPS, burst)
	}
	return a
}

// beginDrain flips the server into drain mode: every subsequent acquire
// is refused with a draining OverloadError (HTTP 503) while in-flight
// requests run to completion.
func (a *admission) beginDrain() { a.draining.Store(true) }

func (a *admission) isDraining() bool { return a.draining.Load() }

// checkQuota charges one request to the tenant's token bucket, shedding
// with a quota OverloadError when the bucket is empty.
func (a *admission) checkQuota(tenant string) error {
	if a.quotas == nil {
		return nil
	}
	ok, retryAfter := a.quotas.allow(tenant)
	if ok {
		return nil
	}
	a.mu.Lock()
	a.c.quotaRejections++
	a.mu.Unlock()
	return &OverloadError{Reason: "quota", RetryAfter: retryAfter}
}

// acquire admits one request into the given cost class, returning the
// release function the caller must defer. The ladder: drain check, fast
// path (free permit), adaptive breaker, bounded queue with the queue
// deadline (and the request's own deadline, whichever is sooner).
func (a *admission) acquire(ctx context.Context, cls costClass) (release func(), err error) {
	if a.draining.Load() {
		a.mu.Lock()
		a.c.shedDraining++
		a.mu.Unlock()
		return nil, &OverloadError{Reason: "draining", RetryAfter: time.Second, Draining: true}
	}
	l := a.classes[cls]
	release = func() { l.permits <- struct{}{} }

	select {
	case <-l.permits:
		a.mu.Lock()
		a.c.admitted++
		a.mu.Unlock()
		if cls == classExpensive {
			a.noteWait(0)
		}
		return release, nil
	default:
	}

	// Contended. The adaptive breaker sheds expensive arrivals before they
	// queue when recent queue waits already blow the latency target — but
	// only arrivals that would queue: the fast path above stays open, so
	// recovering capacity immediately re-admits traffic and feeds the
	// window the zero waits that close the breaker.
	if cls == classExpensive && a.shedLatency > 0 {
		if p95 := a.queueWaitQuantile(0.95); p95 > float64(a.shedLatency)/float64(time.Millisecond) {
			a.mu.Lock()
			a.c.shedLatency++
			a.mu.Unlock()
			return nil, &OverloadError{Reason: "queue-latency", RetryAfter: a.retryAfterHint(cls)}
		}
	}

	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		a.mu.Lock()
		a.c.shedQueueFull++
		a.mu.Unlock()
		return nil, &OverloadError{Reason: "queue-full", RetryAfter: a.retryAfterHint(cls)}
	}
	defer l.queued.Add(-1)

	a.mu.Lock()
	a.c.queued++
	a.mu.Unlock()

	timer := time.NewTimer(a.queueTimeout)
	defer timer.Stop()
	begin := time.Now()
	select {
	case <-l.permits:
		if cls == classExpensive {
			a.noteWait(float64(time.Since(begin)) / float64(time.Millisecond))
		}
		a.mu.Lock()
		a.c.admitted++
		a.mu.Unlock()
		return release, nil
	case <-timer.C:
		// A queue-deadline shed is itself a latency sample: the wait was
		// real even though no permit arrived, and the breaker must see it.
		if cls == classExpensive {
			a.noteWait(float64(a.queueTimeout) / float64(time.Millisecond))
		}
		a.mu.Lock()
		a.c.shedQueueTimeout++
		a.mu.Unlock()
		return nil, &OverloadError{Reason: "queue-timeout", RetryAfter: a.retryAfterHint(cls)}
	case <-ctx.Done():
		// The request's own budget expired while queued: not a shed the
		// client should retry-after, but its deadline (504/499) — still
		// recorded as queue pressure.
		if cls == classExpensive {
			a.noteWait(float64(time.Since(begin)) / float64(time.Millisecond))
		}
		a.mu.Lock()
		a.c.shedQueueTimeout++
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// noteWait records one expensive-class queue wait (ms) in the percentile
// window.
func (a *admission) noteWait(ms float64) {
	a.mu.Lock()
	a.waits[a.waitPos] = ms
	a.waitPos = (a.waitPos + 1) % admissionWaitWindow
	if a.waitLen < admissionWaitWindow {
		a.waitLen++
	}
	a.mu.Unlock()
}

// queueWaitQuantile returns the q-quantile of the recent expensive-class
// queue waits, in milliseconds (0 with no samples).
func (a *admission) queueWaitQuantile(q float64) float64 {
	a.mu.Lock()
	n := a.waitLen
	buf := make([]float64, n)
	copy(buf, a.waits[:n])
	a.mu.Unlock()
	return quantile(buf, q)
}

// quantile sorts buf in place and returns its q-quantile by
// nearest-rank; 0 for an empty slice.
func quantile(buf []float64, q float64) float64 {
	if len(buf) == 0 {
		return 0
	}
	sort.Float64s(buf)
	idx := int(q * float64(len(buf)))
	if idx >= len(buf) {
		idx = len(buf) - 1
	}
	return buf[idx]
}

// noteServiceMS feeds one completed enumeration's latency into the
// Retry-After EWMA and the per-key budget estimate.
func (a *admission) noteServiceMS(key string, ms float64) {
	const alpha = 0.3
	a.mu.Lock()
	if a.serviceMS == 0 {
		a.serviceMS = ms
	} else {
		a.serviceMS += alpha * (ms - a.serviceMS)
	}
	if prev, ok := a.estimates[key]; ok {
		a.estimates[key] = prev + alpha*(ms-prev)
	} else {
		if len(a.estimates) >= maxEstimateKeys {
			// A pathological key churn (many graphs, many measures) must
			// not grow the table without bound; dropping it only costs
			// budget-check precision until it refills.
			a.estimates = make(map[string]float64)
		}
		a.estimates[key] = ms
	}
	a.mu.Unlock()
}

// maxEstimateKeys bounds the per-(graph, measure) estimate table.
const maxEstimateKeys = 4096

// estimateMS returns the EWMA cost estimate for key (per-key if seen,
// else the global service average), and whether any estimate exists.
func (a *admission) estimateMS(key string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if est, ok := a.estimates[key]; ok {
		return est, true
	}
	if a.serviceMS > 0 {
		return a.serviceMS, true
	}
	return 0, false
}

// retryAfterHint estimates how long a shed client should wait before a
// retry has a chance: the backlog ahead of it times the average service
// time, spread over the class's parallelism, clamped to [1s, 30s].
func (a *admission) retryAfterHint(cls costClass) time.Duration {
	l := a.classes[cls]
	a.mu.Lock()
	svc := a.serviceMS
	a.mu.Unlock()
	if svc <= 0 {
		return time.Second
	}
	backlog := float64(l.queued.Load()+1) / float64(l.cap)
	d := time.Duration(svc*backlog) * time.Millisecond
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// countDegraded ticks the degraded-response counter.
func (a *admission) countDegraded() {
	a.mu.Lock()
	a.c.degraded++
	a.mu.Unlock()
}

// countClamped ticks the timeout-clamp counter.
func (a *admission) countClamped() {
	a.mu.Lock()
	a.c.timeoutsClamped++
	a.mu.Unlock()
}

// countReplay ticks the idempotency-replay counter.
func (a *admission) countReplay() {
	a.mu.Lock()
	a.c.idempotentReplays++
	a.mu.Unlock()
}

// snapshot renders the admission state for /api/v1/stats.
func (a *admission) snapshot() *AdmissionStats {
	a.mu.Lock()
	c := a.c
	n := a.waitLen
	buf := make([]float64, n)
	copy(buf, a.waits[:n])
	a.mu.Unlock()
	exp := a.classes[classExpensive]
	return &AdmissionStats{
		Draining:          a.draining.Load(),
		MaxInflight:       exp.cap,
		MaxInflightCheap:  a.classes[classCheap].cap,
		QueueDepth:        int(exp.maxQueue),
		InflightExpensive: exp.inflight(),
		QueuedNow:         int(exp.queued.Load()),
		Admitted:          c.admitted,
		Queued:            c.queued,
		Shed:              c.shedQueueFull + c.shedQueueTimeout + c.shedLatency + c.shedDraining,
		ShedQueueFull:     c.shedQueueFull,
		ShedQueueTimeout:  c.shedQueueTimeout,
		ShedLatency:       c.shedLatency,
		ShedDraining:      c.shedDraining,
		QuotaRejections:   c.quotaRejections,
		QueueWaitP50MS:    quantile(buf, 0.50),
		QueueWaitP95MS:    quantile(buf, 0.95),
		QueueWaitP99MS:    quantile(buf, 0.99),
		Degraded:          c.degraded,
		TimeoutsClamped:   c.timeoutsClamped,
		IdempotentReplays: c.idempotentReplays,
	}
}

// quotaTable is the per-tenant token-bucket table. Buckets refill
// continuously at rps tokens per second up to burst; a request costs one
// token. The table is bounded: when it outgrows maxQuotaTenants, buckets
// that have fully refilled (i.e. idle tenants) are evicted — evicting an
// idle bucket is lossless because a fresh bucket starts full.
type quotaTable struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

const maxQuotaTenants = 8192

func newQuotaTable(rps float64, burst int) *quotaTable {
	return &quotaTable{rps: rps, burst: float64(burst), buckets: make(map[string]*tokenBucket)}
}

// allow charges one token to the tenant, reporting whether it fit and —
// when it did not — how long until a token accrues.
func (q *quotaTable) allow(tenant string) (ok bool, retryAfter time.Duration) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		if len(q.buckets) >= maxQuotaTenants {
			q.evictIdleLocked(now)
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * q.rps
	if b.tokens > q.burst {
		b.tokens = q.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / q.rps
	d := time.Duration(need * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return false, d
}

// evictIdleLocked drops buckets that have fully refilled — tenants idle
// long enough that forgetting them changes nothing.
func (q *quotaTable) evictIdleLocked(now time.Time) {
	full := time.Duration(q.burst / q.rps * float64(time.Second))
	for tenant, b := range q.buckets {
		if now.Sub(b.last) >= full {
			delete(q.buckets, tenant)
		}
	}
}

// Tenant attribution: the HTTP layer stamps the request context with the
// X-API-Key header when present; in-process callers may use WithTenant.
// Requests with no tenant identity fall back to a per-graph bucket, so an
// anonymous hot spot on one graph cannot starve the others.

type tenantCtxKey struct{}

// WithTenant returns a context carrying the tenant identity quotas charge
// requests to.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// tenantFrom extracts the request's tenant: the explicit identity when
// set, otherwise a per-graph fallback.
func tenantFrom(ctx context.Context, graphName string) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok && t != "" {
		return t
	}
	return "graph:" + graphName
}
