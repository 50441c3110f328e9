package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ftsched/internal/paperex"
)

// busRequestJSON renders the paper's bus example as a schedule request body,
// with the graph/arch/spec documents embedded verbatim.
func busRequestJSON(t *testing.T, mutate func(m map[string]any)) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	g, err := inst.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a, err := inst.Arch.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := inst.Spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{
		"graph":     json.RawMessage(g),
		"arch":      json.RawMessage(a),
		"spec":      json.RawMessage(sp),
		"heuristic": "ft1",
		"k":         1,
	}
	if mutate != nil {
		mutate(m)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// busRequestReordered renders the same request as busRequestJSON(t, nil)
// with the top-level keys in a different order and extra whitespace, leaving
// the nested documents byte-identical (the spec encodes infinities as 1e999,
// which no float64 roundtrip may touch).
func busRequestReordered(t *testing.T) []byte {
	t.Helper()
	inst := paperex.BusInstance()
	g, err := inst.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	a, err := inst.Arch.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := inst.Spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("{\n  \"k\": 1,\n  \"heuristic\": \"ft1\",\n  \"spec\": %s,\n  \"arch\": %s,\n  \"graph\": %s\n}\n", sp, a, g))
}

// hashOf decodes a request body and returns its canonical schedule hash.
func hashOf(t *testing.T, body []byte) string {
	t.Helper()
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	p, err := req.decodeProblem()
	if err != nil {
		t.Fatalf("decodeProblem: %v", err)
	}
	key, err := canonicalHash("schedule", &req, p, nil)
	if err != nil {
		t.Fatalf("canonicalHash: %v", err)
	}
	return key
}

// TestHashInsensitiveToEncoding: JSON key order, whitespace, and number
// spelling must not change the canonical hash.
func TestHashInsensitiveToEncoding(t *testing.T) {
	base := busRequestJSON(t, nil)
	want := hashOf(t, base)

	// Whitespace: re-indent the whole document.
	var pretty json.RawMessage = base
	indented, err := json.MarshalIndent(pretty, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(t, indented); got != want {
		t.Errorf("whitespace changed the hash: %s != %s", got, want)
	}

	// Key order: same request, different top-level key order.
	reordered := busRequestReordered(t)
	if string(reordered) == string(base) {
		t.Fatal("test vacuous: reordering produced identical bytes")
	}
	if got := hashOf(t, reordered); got != want {
		t.Errorf("key reordering changed the hash: %s != %s", got, want)
	}

	// Defaulted-vs-explicit zero options.
	explicit := busRequestJSON(t, func(m map[string]any) {
		m["seeds"] = 0
		m["allow_degraded"] = false
		m["deadline"] = 0.0
	})
	if got := hashOf(t, explicit); got != want {
		t.Errorf("explicit zero options changed the hash: %s != %s", got, want)
	}
}

// TestHashIgnoresResourceKnobs: workers and timeout_ms trade latency for
// resources without changing results, so they share one cache entry.
func TestHashIgnoresResourceKnobs(t *testing.T) {
	want := hashOf(t, busRequestJSON(t, nil))
	knobs := busRequestJSON(t, func(m map[string]any) {
		m["workers"] = 8
		m["timeout_ms"] = 1234
	})
	if got := hashOf(t, knobs); got != want {
		t.Errorf("resource knobs changed the hash: %s != %s", got, want)
	}
}

// TestHashSensitiveToSemantics: every semantic field change must change the
// hash — including operation declaration order, which the schedulers'
// deterministic tie-breaking is sensitive to.
func TestHashSensitiveToSemantics(t *testing.T) {
	base := hashOf(t, busRequestJSON(t, nil))
	mutations := map[string]func(m map[string]any){
		"heuristic": func(m map[string]any) { m["heuristic"] = "ft2" },
		"k":         func(m map[string]any) { m["k"] = 2 },
		"seeds":     func(m map[string]any) { m["seeds"] = 3 },
		"degraded":  func(m map[string]any) { m["allow_degraded"] = true },
		"nobcast":   func(m map[string]any) { m["no_broadcast"] = true },
		"nopress":   func(m map[string]any) { m["no_pressure"] = true },
		"deadline":  func(m map[string]any) { m["deadline"] = 99.5 },
	}
	for name, mutate := range mutations {
		got := hashOf(t, busRequestJSON(t, mutate))
		if got == base {
			t.Errorf("%s: semantic change did not change the hash", name)
		}
	}

	// Operation declaration order is semantic: swap two op declarations in
	// the graph document and the hash must move.
	swapped := busRequestJSON(t, func(m map[string]any) {
		raw := string(m["graph"].(json.RawMessage))
		// The paper graph declares ops I, A, B, ... — swapping the A and B
		// declarations preserves the op set but changes tie-break order.
		if !strings.Contains(raw, `"A"`) || !strings.Contains(raw, `"B"`) {
			t.Fatal("graph document lacks expected ops A and B")
		}
		raw = strings.NewReplacer(`"A"`, `"__tmp__"`, `"B"`, `"A"`).Replace(raw)
		raw = strings.ReplaceAll(raw, `"__tmp__"`, `"B"`)
		m["graph"] = json.RawMessage(raw)
	})
	if got := hashOf(t, swapped); got == base {
		t.Error("renaming/swapping ops did not change the hash")
	}
}

// TestHashKindsDisjoint: the same problem hashed for schedule, certify, and
// simulate must occupy distinct cache keys.
func TestHashKindsDisjoint(t *testing.T) {
	body := busRequestJSON(t, nil)
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	p, err := req.decodeProblem()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := canonicalHash("schedule", &req, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := canonicalHash("certify", &req, p, certifyExtra{CertifyK: 1})
	if err != nil {
		t.Fatal(err)
	}
	simu, err := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if sched == cert || sched == simu || cert == simu {
		t.Errorf("kind hashes collide: schedule=%s certify=%s simulate=%s", sched, cert, simu)
	}

	// certify_k participates in the certify hash.
	cert2, err := canonicalHash("certify", &req, p, certifyExtra{CertifyK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cert2 == cert {
		t.Error("certify_k change did not change the certify hash")
	}

	// An absent scenario and an explicit empty one are the same request.
	simuNil, err := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if simuNil != simu {
		t.Error("empty scenario is not canonical")
	}
	// A non-empty scenario is a different request.
	simu2, err := canonicalHash("simulate", &req, p, simulateExtra{Scenario: []FailureSpec{{Proc: "P1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if simu2 == simu {
		t.Error("scenario change did not change the simulate hash")
	}
}

// TestHashGoldenV2 pins the hash field the server returns for the paper bus
// example (FT1, K=1), one per kind, under canonical form v2. A change here
// moves every cache key and every response's hash field: bump
// canonicalVersion with it and say so in the changelog.
func TestHashGoldenV2(t *testing.T) {
	want := map[string]string{
		"/v1/schedule": "bdb5b1075c49c80643705311695b51ad64e33810749fc571cf78256077bcd48e",
		"/v1/certify":  "ca37d9e584732b1c2124d2ce65f364340ec33f6b950259ced5be8471dbbb2e59",
		"/v1/simulate": "aa04676d9a6515dd45b82637946582ec34719d51114e2e9a0eeca04d0dc4f2b5",
	}
	h := New(Config{}).Handler()
	for path, hash := range want {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(busRequestJSON(t, nil))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		var env struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Hash != hash {
			t.Errorf("%s: hash %s, want %s", path, env.Hash, hash)
		}
	}
}
