package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ftsched/internal/core"
	"ftsched/internal/serve"
)

// fingerprint flattens generated traffic to comparable values.
func fingerprint(t *testing.T, in *serveInputs) []string {
	t.Helper()
	var out []string
	for _, unit := range in.units {
		for _, rq := range unit {
			out = append(out, rq.kind, string(rq.body))
		}
	}
	return out
}

func TestServeGeneratorsArePureInWorkloadSeedAndPass(t *testing.T) {
	for name, gen := range map[string]func(int64, int) (*serveInputs, error){
		"serve-mix": serveMixInputs,
		"plan-bus":  planBusInputs,
	} {
		a := fingerprint(t, mustInputs(t, gen, 3, 0))
		if !reflect.DeepEqual(a, fingerprint(t, mustInputs(t, gen, 3, 0))) {
			t.Errorf("%s: seed 3 pass 0 generated different traffic twice", name)
		}
		if reflect.DeepEqual(a, fingerprint(t, mustInputs(t, gen, 4, 0))) {
			t.Errorf("%s: seeds 3 and 4 generated the same traffic", name)
		}
		if reflect.DeepEqual(a, fingerprint(t, mustInputs(t, gen, 3, 1))) {
			t.Errorf("%s: passes 0 and 1 of seed 3 generated the same traffic", name)
		}
	}
	if reflect.DeepEqual(fingerprint(t, mustInputs(t, serveMixInputs, 3, 0))[:2], fingerprint(t, mustInputs(t, planBusInputs, 3, 0))[:2]) {
		t.Error("serve-mix and plan-bus share their first request at one seed")
	}
}

func mustInputs(t *testing.T, gen func(int64, int) (*serveInputs, error), seed int64, k int) *serveInputs {
	t.Helper()
	in, err := gen(seed, k)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestServeMixRepeatsTrailTheirOriginals(t *testing.T) {
	in := mustInputs(t, serveMixInputs, 5, 0)
	firstUnit := map[int]int{}
	repeats := 0
	for u, unit := range in.units {
		if len(unit) != 3 || unit[0].kind != "schedule" || unit[1].kind != "certify" || unit[2].kind != "simulate" {
			t.Fatalf("unit %d is not a schedule, certify, simulate triple", u)
		}
		p := unit[0].problem
		if first, seen := firstUnit[p]; seen {
			repeats++
			if u-first < mixRepeatGap {
				t.Errorf("problem %d re-sent %d units after its first send, want >= %d", p, u-first, mixRepeatGap)
			}
			continue
		}
		firstUnit[p] = u
	}
	if want := (mixProblems - 2*mixRepeatGap + mixRepeatEvery - 1) / mixRepeatEvery; repeats != want {
		t.Errorf("%d repeated triples, want %d", repeats, want)
	}
}

func TestPlanBusAlternatesK(t *testing.T) {
	in := mustInputs(t, planBusInputs, 5, 2)
	for i, p := range in.problems {
		if p.k != 1+i%2 || p.heur != core.FT1 || p.seeds != busSeeds {
			t.Fatalf("problem %d: heuristic %v K=%d seeds %d", i, p.heur, p.k, p.seeds)
		}
	}
	for _, unit := range in.units {
		if len(unit) != 2 || !bytes.Equal(unit[0].body, unit[1].body) {
			t.Fatal("plan-bus unit is not a schedule and a certify request with one body")
		}
	}
}

func TestCampaignGeneratorIsPureInSeedAndCampaign(t *testing.T) {
	enc := func(seed int64, c int) string {
		p, err := campaignInput(seed, c)
		if err != nil {
			t.Fatal(err)
		}
		req, err := p.scheduleRequest()
		if err != nil {
			t.Fatal(err)
		}
		return string(req.Graph) + string(req.Arch) + string(req.Spec)
	}
	if enc(9, 0) != enc(9, 0) {
		t.Error("seed 9 generated different campaign models twice")
	}
	if enc(9, 0) == enc(10, 0) || enc(9, 0) == enc(9, 1) {
		t.Error("distinct seeds or campaigns generated the same model")
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{9, 10} {
		for c := 0; c < 100; c++ {
			s := campaignSeed(seed, c)
			if seen[s] {
				t.Fatalf("campaign seed %d repeats", s)
			}
			seen[s] = true
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	beyondOf := func(xs []float64, v float64) int {
		n := 0
		for _, x := range xs {
			if x > v {
				n++
			}
		}
		return n
	}
	for n := 0; n <= 3000; n += 1 + n/50 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		v, pct, beyond, ok := tail(append([]float64(nil), xs...))
		if n < 2*tailBeyond {
			if ok {
				t.Fatalf("n=%d: tail p%v reported with fewer than %d samples beyond the median", n, pct, tailBeyond)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if b := beyondOf(xs, v); b < tailBeyond || b != beyond {
			t.Fatalf("n=%d: p%v has %d samples beyond, reported %d, want >= %d", n, pct, b, beyond, tailBeyond)
		}
		// The next percentile up the ladder would keep fewer than tailBeyond.
		for i, p := range tailLadder {
			if p == pct && i > 0 {
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				rank := int(math.Ceil(tailLadder[i-1] / 100 * float64(n)))
				if b := beyondOf(xs, sorted[rank-1]); b >= tailBeyond {
					t.Fatalf("n=%d: chose p%v but p%v has %d samples beyond", n, pct, tailLadder[i-1], b)
				}
			}
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// tamper wraps a handler: the request numbered fail500 gets a 500, and the
// body of the request numbered flip gets one byte changed.
type tamper struct {
	h             http.Handler
	n             int
	fail500, flip int
}

func (t *tamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.n++
	if t.n == t.fail500 {
		http.Error(w, "stub failure", http.StatusInternalServerError)
		return
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if t.n == t.flip {
		body = append([]byte(nil), body...)
		body[len(body)-2] ^= 1
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

func TestServeMixSetsAsideExactlyTheCertify500s(t *testing.T) {
	// Pass 1 of seed 3 draws one schedulable problem that /v1/certify
	// cannot answer. Drawn again without vetting, from the same generator
	// state, the kept problems are the same draws with it left out.
	gen := func() *rand.Rand { return rand.New(rand.NewSource(passSeed(3, 1, workloadSaltMix))) }
	one := func(int) int { return 1 }
	kept, setAside, err := drawProblems(gen(), mixProblems, mixOps, mixProcs, false, core.FT2, one, 0, true)
	if err != nil || setAside != 1 {
		t.Fatalf("set aside %d (%v), want 1", setAside, err)
	}
	all, _, err := drawProblems(gen(), mixProblems+setAside, mixOps, mixProcs, false, core.FT2, one, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	h := serve.New(serve.Config{}).Handler()
	j := 0
	for i := range all {
		isKept := j < len(kept) && reflect.DeepEqual(all[i].inst, kept[j].inst)
		if isKept {
			j++
		}
		bodies, err := all[i].bodies([]string{"certify"})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/certify", bytes.NewReader(bodies["certify"])))
		if want := map[bool]int{true: http.StatusOK, false: http.StatusInternalServerError}[isKept]; rec.Code != want {
			t.Errorf("draw %d (kept %v): certify status %d, want %d", i, isKept, rec.Code, want)
		}
	}
	if j != len(kept) {
		t.Fatalf("%d of %d kept problems found among the unvetted draws", j, len(kept))
	}
}

func TestOkShareCountsStub500AndBodyMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	problems, _, err := drawProblems(r, 2, 10, 3, false, core.FT2, func(int) int { return 1 }, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Problem 0, problem 1, then problem 0 again: nine requests on one client.
	in, err := buildUnits(problems, []int{0, 1, 0}, []string{"schedule", "certify", "simulate"})
	if err != nil {
		t.Fatal(err)
	}
	// Request 4 (problem 1's schedule) fails; request 8 (the repeated
	// certify of problem 0) comes back with a changed byte.
	h := &tamper{h: serve.New(serve.Config{}).Handler(), fail500: 4, flip: 8}
	chk := newChecker(in)
	p := runPass(h, in, 1, time.Time{}, chk, nil, nil)
	var lat []float64
	attempted, failed := tally(&p, &lat)
	if attempted != 9 || failed != 2 || len(lat) != 9 {
		t.Fatalf("attempted %d, failed %d, %d latencies; want 9, 2, 9", attempted, failed, len(lat))
	}
	if chk.wrong != 1 || chk.byStatus[http.StatusInternalServerError] != 1 {
		t.Fatalf("wrong answers %d, 500s %d; want 1 and 1", chk.wrong, chk.byStatus[http.StatusInternalServerError])
	}

	// Untampered, the same traffic passes every check, with the repeat
	// served from the cache.
	chk = newChecker(in)
	p = runPass(serve.New(serve.Config{}).Handler(), in, 1, time.Time{}, chk, nil, nil)
	if attempted, failed = tally(&p, &lat); attempted != 9 || failed != 0 {
		t.Fatalf("untampered: attempted %d, failed %d (%v)", attempted, failed, chk.firstErr)
	}
	for _, rq := range in.units[2] {
		if c := p.resp[rq.id].cache; c != "hit" {
			t.Errorf("repeated %s: cache %q, want hit", rq.kind, c)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	out := newReport()
	if err := out.endToEnd(100, 1, 10, make([]float64, 20), [][]float64{make([]float64, 20)}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	var printed, declared []string
	for name, m := range out.metrics {
		printed = append(printed, name+" "+m.Unit)
	}
	for _, m := range bench.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	sort.Strings(printed)
	sort.Strings(declared)
	if !reflect.DeepEqual(printed, declared) {
		t.Errorf("end-to-end metrics printed %v, declared %v", printed, declared)
	}
	printed, declared = nil, nil
	for _, m := range perLayer {
		printed = append(printed, m.name+" "+m.unit)
	}
	for _, m := range bench.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(printed, declared) {
		t.Errorf("per-layer metrics printed %v, declared %v", printed, declared)
	}
}

func TestTracedPassAndReplayWithTwoClients(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	problems, _, err := drawProblems(r, 4, 10, 3, false, core.FT2, func(int) int { return 1 }, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildUnits(problems, []int{0, 1, 2, 3}, []string{"schedule", "certify", "simulate"})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	reqSpan := make([]int, in.requests)
	chk := newChecker(in)
	p := runPass(serve.New(serve.Config{}).Handler(), in, 2, time.Time{}, chk, tr, reqSpan)
	if len(tr.spans) != in.requests {
		t.Fatalf("%d request spans for %d requests", len(tr.spans), in.requests)
	}
	for _, unit := range in.units {
		for _, rq := range unit {
			if rs := p.resp[rq.id]; !rs.done || !rs.ok || rs.status != http.StatusOK || rs.cache != "miss" {
				t.Fatalf("request %d: done %v, ok %v, status %d, cache %q (%v)", rq.id, rs.done, rs.ok, rs.status, rs.cache, chk.firstErr)
			}
			if s := tr.spans[reqSpan[rq.id]]; s.req != rq.id || s.parent != -1 {
				t.Fatalf("request %d: span for request %d, parent %d", rq.id, s.req, s.parent)
			}
		}
	}
	runs, err := replay(in, in.units, &p, tr, reqSpan)
	if err != nil {
		t.Fatal(err)
	}
	layers, children := tr.layerTimes()
	want := map[string]int{
		"model.decode": 12, "model.encode": 12, "core.schedule": 4, "sched.validate": 4, "sched.encode": 4,
		"sched.decode": 8, "certify.certify": 4, "sim.compile": 4, "sim.run": 4,
	}
	for name, n := range want {
		if got := layers[name].count(); got != n {
			t.Errorf("%s: %d calls, want %d", name, got, n)
		}
	}
	if runs != 4 {
		t.Errorf("%d heuristic runs, want 4", runs)
	}
	for _, unit := range in.units {
		for _, rq := range unit {
			if children[reqSpan[rq.id]] <= 0 {
				t.Errorf("request %d has no replayed child time", rq.id)
			}
		}
	}
}
