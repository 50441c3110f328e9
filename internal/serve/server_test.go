package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/paperex"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// cliBytesFor renders what the ftsched CLI prints with -format json for the
// same problem: the byte-identity oracle.
func cliBytesFor(t *testing.T, heuristic core.Heuristic, k int) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	res, err := core.ScheduleTuned(heuristic, inst.Graph, inst.Arch, inst.Spec, k, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := res.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestScheduleCLIByteIdentity: ?format=cli returns exactly the bytes the
// ftsched CLI prints, and a cache hit replays them unchanged.
func TestScheduleCLIByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	want := cliBytesFor(t, core.FT1, 1)

	resp, got := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Ftsched-Cache") != "miss" {
		t.Errorf("first request cache state = %q, want miss", resp.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from CLI bytes:\n got: %s\nwant: %s", got, want)
	}

	// Hit path: identical bytes, hit header.
	resp2, got2 := post(t, ts.URL+"/v1/schedule?format=cli", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("second request cache state = %q, want hit", resp2.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got2, got) {
		t.Error("cache hit returned different bytes than the miss")
	}

	// Re-encoded request (different JSON spelling, same semantics): same
	// cache entry, same bytes.
	resp3, got3 := post(t, ts.URL+"/v1/schedule?format=cli", busRequestReordered(t))
	if resp3.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("re-encoded request cache state = %q, want hit", resp3.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(got3, got) {
		t.Error("re-encoded request returned different bytes")
	}
}

// TestScheduleEnvelope: the default envelope carries the hash and the
// schedule document, and is itself byte-deterministic across hit and miss.
func TestScheduleEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	resp, miss := post(t, ts.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, miss)
	}
	var env struct {
		Hash     string          `json:"hash"`
		Makespan float64         `json:"makespan"`
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(miss, &env); err != nil {
		t.Fatalf("envelope does not parse: %v", err)
	}
	if env.Hash != hashOf(t, body) {
		t.Errorf("envelope hash %q != canonical hash", env.Hash)
	}
	if env.Makespan <= 0 || len(env.Schedule) == 0 {
		t.Errorf("implausible envelope: makespan=%v schedule=%d bytes", env.Makespan, len(env.Schedule))
	}
	_, hit := post(t, ts.URL+"/v1/schedule", body)
	if !bytes.Equal(miss, hit) {
		t.Error("envelope bytes differ between miss and hit")
	}
}

// TestConcurrentIdenticalRequests: N concurrent identical requests produce
// identical bytes, and the engine-run counter shows the cache plus
// single-flight collapsed the work (run under -race in CI).
func TestConcurrentIdenticalRequests(t *testing.T) {
	const clients = 12
	s, ts := newTestServer(t, Config{Workers: 4})
	body := busRequestJSON(t, nil)

	// Warm once so the concurrent wave is deterministic: all hits.
	if resp, out := post(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", resp.StatusCode, out)
	}
	runsAfterWarm := s.ins.runSched.Value()
	if runsAfterWarm != 1 {
		t.Fatalf("warm-up ran the engine %d times, want 1", runsAfterWarm)
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := post(t, ts.URL+"/v1/schedule", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			bodies[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	if got := s.ins.runSched.Value(); got != 1 {
		t.Errorf("engine ran %d times for %d identical requests, want 1", got, clients+1)
	}
}

// TestCertifyReusesScheduleCache: certify goes through the schedule cache,
// so scheduling runs once even when certify comes second.
func TestCertifyReusesScheduleCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, nil)
	if resp, out := post(t, ts.URL+"/v1/schedule", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	resp, out := post(t, ts.URL+"/v1/certify", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d %s", resp.StatusCode, out)
	}
	var env struct {
		Hash    string `json:"hash"`
		Verdict struct {
			Tolerated int  `json:"Tolerated"`
			Certified bool `json:"Certified"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatalf("certify envelope does not parse: %v", err)
	}
	if !env.Verdict.Certified {
		t.Errorf("paper example FT1/k=1 schedule should certify: %s", out)
	}
	if got := s.ins.runSched.Value(); got != 1 {
		t.Errorf("schedule engine ran %d times, want 1 (certify should reuse the cache)", got)
	}
	if got := s.ins.runCertify.Value(); got != 1 {
		t.Errorf("certify engine ran %d times, want 1", got)
	}
	// Identical certify request: cached outright.
	resp2, out2 := post(t, ts.URL+"/v1/certify", body)
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("second certify cache state = %q, want hit", resp2.Header.Get("X-Ftsched-Cache"))
	}
	if !bytes.Equal(out2, out) {
		t.Error("certify hit returned different bytes")
	}
}

// TestSimulateEndpoint: simulate with a failure scenario returns a parsed
// result and deadline-met iterations.
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := busRequestJSON(t, func(m map[string]any) {
		m["scenario"] = []map[string]any{{"proc": "P1"}}
	})
	resp, out := post(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, out)
	}
	var env struct {
		Hash   string          `json:"hash"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out, &env); err != nil || len(env.Result) == 0 {
		t.Fatalf("simulate envelope does not parse: %v", err)
	}
	// Absent scenario and explicit empty scenario share one cache entry.
	noScenario := busRequestJSON(t, nil)
	emptyScenario := busRequestJSON(t, func(m map[string]any) {
		m["scenario"] = []any{}
	})
	_, _ = post(t, ts.URL+"/v1/simulate", noScenario)
	resp2, _ := post(t, ts.URL+"/v1/simulate", emptyScenario)
	if resp2.Header.Get("X-Ftsched-Cache") != "hit" {
		t.Errorf("empty-vs-absent scenario missed the cache: %q", resp2.Header.Get("X-Ftsched-Cache"))
	}
}

// TestBatchOrderAndPartialFailure: batch responses come back in request
// order with per-element statuses.
func TestBatchOrderAndPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := busRequestJSON(t, nil)
	bad := busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "nope" })
	breq, err := json.Marshal(BatchRequest{Requests: []json.RawMessage{good, bad, good}})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL+"/v1/schedule/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, out)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(out, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Responses) != 3 {
		t.Fatalf("got %d responses, want 3", len(bresp.Responses))
	}
	wantStatus := []int{200, 400, 200}
	for i, item := range bresp.Responses {
		if item.Status != wantStatus[i] {
			t.Errorf("response %d status = %d, want %d", i, item.Status, wantStatus[i])
		}
	}
	if !bytes.Equal(bresp.Responses[0].Body, bresp.Responses[2].Body) {
		t.Error("identical batch elements returned different bodies")
	}
}

// TestErrorStatuses drives the failure paths.
func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"bad heuristic", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "nope" }), 400},
		{"unknown field", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["typo_field"] = 1 }), 400},
		{"negative k", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["k"] = -1 }), 400},
		{"not json", "/v1/schedule", []byte("not json"), 400},
		{"missing deadline", "/v1/schedule", busRequestJSON(t, func(m map[string]any) { m["deadline"] = 0.001 }), 422},
		{"cli on certify", "/v1/certify?format=cli", busRequestJSON(t, nil), 400},
		{"unknown format", "/v1/schedule?format=yaml", busRequestJSON(t, nil), 400},
		{"empty batch", "/v1/schedule/batch", []byte(`{"requests":[]}`), 400},
	}
	for _, tc := range cases {
		resp, out := post(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body does not parse: %s", tc.name, out)
		}
	}

	// Method check.
	resp, err := http.Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule = %d, want 405", resp.StatusCode)
	}
}

// TestCanceledRequestIs504: a request whose context is already dead maps to
// 504 without caching anything.
func TestCanceledRequestIs504(t *testing.T) {
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, herr := s.handleSchedule(ctx, busRequestJSON(t, nil), "")
	if herr == nil || herr.status != http.StatusGatewayTimeout {
		t.Fatalf("herr = %v, want 504", herr)
	}
	if s.cache.Len() != 0 {
		t.Error("canceled request left a cache entry")
	}
}

// TestHealthzAndDrain: the health endpoint flips to 503 on drain.
func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestMetricsEndpoint: /metrics re-exports the serve counters in Prometheus
// text format, problem interning included.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scrape := func(wants ...string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, want := range wants {
			if !strings.Contains(text, want+"\n") {
				t.Errorf("metrics output lacks %q:\n%s", want, text)
			}
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("metrics content type = %q", ct)
		}
	}
	if resp, out := post(t, ts.URL+"/v1/schedule", busRequestJSON(t, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d %s", resp.StatusCode, out)
	}
	scrape(
		"# TYPE ftsched_serve_requests counter",
		"ftsched_serve_requests 1",
		"ftsched_serve_engine_schedule 1",
		"ftsched_serve_cache_misses 1",
		"# TYPE ftsched_serve_problems_hits counter",
		"ftsched_serve_problems_hits 0",
		"ftsched_serve_problems_misses 1",
	)
	// A certify of the same problem reuses its decoded form and schedule.
	if resp, out := post(t, ts.URL+"/v1/certify", busRequestJSON(t, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: %d %s", resp.StatusCode, out)
	}
	scrape(
		"ftsched_serve_requests 2",
		"ftsched_serve_engine_schedule 1",
		"ftsched_serve_problems_hits 1",
		"ftsched_serve_problems_misses 1",
	)
}

// TestBodyTooLarge: oversized bodies are rejected with 413.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	resp, _ := post(t, ts.URL+"/v1/schedule", bytes.Repeat([]byte("x"), 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
