package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/internal/workload"
)

// overloadServer boots an httptest server around a configured *Server so
// tests can both drive HTTP and reach the admission internals directly.
func overloadServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewWithConfig(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// awaitStatus polls a session resource until it reaches the wanted lifecycle
// state.
func awaitStatus(t *testing.T, baseURL, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var info map[string]any
		if resp := getJSON(t, baseURL+"/v1/sessions/"+id, &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("get session status %d: %v", resp.StatusCode, info)
		}
		if info["status"] == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %q", id, want)
}

// TestRunShedByLimiter fills the shared run limiter directly and asserts the
// next HTTP run is shed with a 429 "overloaded" envelope, a Retry-After
// header, and a counted rqp_shed_total sample — then completes once the slot
// frees up.
func TestRunShedByLimiter(t *testing.T) {
	srv, ts := overloadServer(t, Config{MaxConcurrentRuns: 1})
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	if !srv.runLimiter.TryAcquire() {
		t.Fatal("could not pre-fill the run limiter")
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429: %v", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != codeOverloaded {
		t.Errorf("shed code = %q, want %q", code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	fams := scrape(t, ts.URL)
	if n := sampleSum(fams["rqp_shed_total"], "", map[string]string{"class": "run", "reason": "limiter"}); n != 1 {
		t.Errorf("rqp_shed_total{run,limiter} = %v, want 1", n)
	}
	// The gauge mirrors only admitted requests (the direct pre-fill bypasses
	// it); the family must still render with the run class pre-touched.
	if fams["rqp_inflight"] == nil {
		t.Error("rqp_inflight family missing from the scrape")
	}

	srv.runLimiter.Release(true)
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "spillbound", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release run status = %d: %v", resp.StatusCode, body)
	}
	if n := srv.runLimiter.Inflight(); n != 0 {
		t.Errorf("limiter inflight after run = %d, want 0", n)
	}
}

// TestRunShedByBulkhead fills one session's bulkhead and asserts the shed
// rolls the shared limiter slot back (Cancel, no outcome feedback).
func TestRunShedByBulkhead(t *testing.T) {
	srv, ts := overloadServer(t, Config{MaxConcurrentRuns: 8, SessionMaxRuns: 1})
	id := createSession(t, ts.URL, map[string]any{"query": "2D_EQ", "gridRes": 6})

	srv.mu.Lock()
	e := srv.sessions[id]
	srv.mu.Unlock()
	if !e.bulkhead.TryAcquire() {
		t.Fatal("could not pre-fill the session bulkhead")
	}
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "planbouquet", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429: %v", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != codeOverloaded {
		t.Errorf("shed code = %q, want %q", code, codeOverloaded)
	}
	if n := srv.runLimiter.Inflight(); n != 0 {
		t.Errorf("limiter inflight after bulkhead shed = %d, want 0 (Cancel must roll back)", n)
	}
	if lim := srv.runLimiter.Limit(); lim != 8 {
		t.Errorf("limiter limit after bulkhead shed = %v, want 8 (no outcome feedback)", lim)
	}
	fams := scrape(t, ts.URL)
	if n := sampleSum(fams["rqp_shed_total"], "", map[string]string{"class": "run", "reason": "bulkhead"}); n != 1 {
		t.Errorf("rqp_shed_total{run,bulkhead} = %v, want 1", n)
	}

	e.bulkhead.Release()
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+id+"/run", map[string]any{
		"strategy": "planbouquet", "truth": []float64{0.02, 0.3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release run status = %d: %v", resp.StatusCode, body)
	}
}

// TestBuildShedByLimiter gates the build path and asserts session creation
// past the build concurrency limit is shed with 429.
func TestBuildShedByLimiter(t *testing.T) {
	gate := make(chan struct{})
	orig := buildSession
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return orig(ctx, bq, opts)
	}
	t.Cleanup(func() { buildSession = orig })

	_, ts := overloadServer(t, Config{MaxConcurrentBuilds: 1})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first create status = %d: %v", resp.StatusCode, body)
	}
	id := body["id"].(string)

	resp, body = postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create status = %d, want 429: %v", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != codeOverloaded {
		t.Errorf("shed code = %q, want %q", code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("build shed missing Retry-After")
	}
	fams := scrape(t, ts.URL)
	if n := sampleSum(fams["rqp_inflight"], "", map[string]string{"class": "build"}); n != 1 {
		t.Errorf("rqp_inflight{build} = %v, want 1", n)
	}

	close(gate)
	awaitReady(t, ts.URL, id)
	resp, body = postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-build create status = %d: %v", resp.StatusCode, body)
	}
}

// TestBuildBreaker drives consecutive build failures past the threshold,
// asserts the circuit opens (503 + Retry-After, rqp_breaker_state 1), and
// that after the cooldown a half-open probe with a healthy builder closes it
// again.
func TestBuildBreaker(t *testing.T) {
	orig := buildSession
	var fail atomic.Bool
	fail.Store(true)
	buildSession = func(ctx context.Context, bq workload.Spec, opts repro.Options) (*repro.Session, error) {
		if fail.Load() {
			return nil, fmt.Errorf("injected build failure")
		}
		return orig(ctx, bq, opts)
	}
	t.Cleanup(func() { buildSession = orig })

	srv, ts := overloadServer(t, Config{
		MaxConcurrentBuilds: 8,
		BreakerThreshold:    2,
		BreakerCooldown:     50 * time.Millisecond,
	})

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("create %d status = %d: %v", i, resp.StatusCode, body)
		}
		awaitStatus(t, ts.URL, body["id"].(string), statusFailed)
	}

	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-circuit create status = %d, want 503: %v", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != codeOverloaded {
		t.Errorf("open-circuit code = %q, want %q", code, codeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-circuit response missing Retry-After")
	}
	fams := scrape(t, ts.URL)
	if v := sampleSum(fams["rqp_breaker_state"], "", nil); v != 1 {
		t.Errorf("rqp_breaker_state = %v, want 1 (open)", v)
	}
	if n := sampleSum(fams["rqp_shed_total"], "", map[string]string{"class": "build", "reason": "breaker"}); n != 1 {
		t.Errorf("rqp_shed_total{build,breaker} = %v, want 1", n)
	}

	// Heal the dependency, wait out the cooldown, and let the half-open probe
	// close the circuit.
	fail.Store(false)
	time.Sleep(60 * time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/v1/sessions", map[string]any{"query": "2D_EQ", "gridRes": 6})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("probe create status = %d, want 202: %v", resp.StatusCode, body)
	}
	awaitReady(t, ts.URL, body["id"].(string))
	if st := srv.breaker.State(); st != 0 {
		t.Errorf("breaker state after successful probe = %d, want 0 (closed)", st)
	}
}
