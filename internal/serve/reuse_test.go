package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"ftsched/internal/arch"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
	"ftsched/internal/workload"
)

// busRequestIndented is busRequestJSON(t, nil) re-indented throughout, so
// the graph, arch, and spec members themselves are spelled differently: the
// same problem under another interning key.
func busRequestIndented(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, busRequestJSON(t, nil), "", "    "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeRequest decodes a request body the way the server's handlers do.
func decodeRequest(t *testing.T, body []byte) *ScheduleRequest {
	t.Helper()
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// TestProblemInterning: equal raw documents decode once and share one
// models value; another spelling of the problem decodes on its own but
// digests equally; the heuristic stays with the request; and a disabled
// cache decodes every time.
func TestProblemInterning(t *testing.T) {
	s := New(Config{})
	base := decodeRequest(t, busRequestJSON(t, nil))
	p1, err := s.problemFor(base)
	if err != nil {
		t.Fatal(err)
	}
	ft2 := decodeRequest(t, busRequestJSON(t, func(m map[string]any) { m["heuristic"] = "ft2" }))
	p2, err := s.problemFor(ft2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.models != p1.models {
		t.Error("equal raw documents decoded twice")
	}
	if p1.h != core.FT1 || p2.h != core.FT2 {
		t.Errorf("heuristics %v, %v; want ft1, ft2", p1.h, p2.h)
	}
	p3, err := s.problemFor(decodeRequest(t, busRequestIndented(t)))
	if err != nil {
		t.Fatal(err)
	}
	if p3.models == p1.models {
		t.Error("differently spelled documents shared an interning entry")
	}
	if p3.digest != p1.digest {
		t.Errorf("one problem, two digests: %s != %s", p3.digest, p1.digest)
	}
	if hits, misses := s.ins.probHits.Value(), s.ins.probMisses.Value(); hits != 1 || misses != 2 {
		t.Errorf("problem hits/misses = %d/%d, want 1/2", hits, misses)
	}
	if _, err := s.problemFor(decodeRequest(t, busRequestJSON(t, func(m map[string]any) { m["k"] = -1 }))); err == nil {
		t.Error("invalid request options passed problemFor")
	}

	off := New(Config{CacheEntries: -1})
	q1, err := off.problemFor(base)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := off.problemFor(base)
	if err != nil {
		t.Fatal(err)
	}
	if q1.models == q2.models || off.problems.Len() != 0 {
		t.Error("CacheEntries < 0 left problem interning on")
	}
}

// TestConcurrentKindsShareOneProblem: many goroutines send schedule (JSON
// envelope and ?format=cli), certify, and simulate for one problem at once,
// in two spellings. The scheduling engine runs once, every body equals what
// a serial server returns, and the shared schedule and problems are never
// written after publication: the race detector sees no conflicting access,
// and afterwards they still equal freshly built ones, memoized views
// included.
func TestConcurrentKindsShareOneProblem(t *testing.T) {
	spellings := [][]byte{busRequestJSON(t, nil), busRequestIndented(t)}
	paths := []string{"/v1/schedule", "/v1/schedule?format=cli", "/v1/certify", "/v1/simulate"}

	_, serial := newTestServer(t, Config{})
	want := map[string][]byte{}
	for _, path := range paths {
		resp, out := post(t, serial.URL+path, spellings[0])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serial %s: %d %s", path, resp.StatusCode, out)
		}
		want[path] = out
	}

	const perCell = 4
	s, ts := newTestServer(t, Config{Workers: 4})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range paths {
		for si, body := range spellings {
			for i := 0; i < perCell; i++ {
				wg.Add(1)
				go func(path string, si int, body []byte) {
					defer wg.Done()
					<-start
					resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					var out bytes.Buffer
					if _, err := out.ReadFrom(resp.Body); err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK || !bytes.Equal(out.Bytes(), want[path]) {
						t.Errorf("%s, spelling %d: status %d, body differs from the serial server's", path, si, resp.StatusCode)
					}
				}(path, si, body)
			}
		}
	}
	close(start)
	wg.Wait()

	for name, c := range map[string]int64{
		"schedule": s.ins.runSched.Value(),
		"certify":  s.ins.runCertify.Value(),
		"simulate": s.ins.runSimulate.Value(),
	} {
		if c != 1 {
			t.Errorf("%s engine ran %d times, want 1", name, c)
		}
	}
	total := int64(len(paths) * len(spellings) * perCell)
	if got := s.ins.probHits.Value() + s.ins.probMisses.Value(); got != total {
		t.Errorf("problem lookups = %d, want %d", got, total)
	}

	// Nothing written after publication: the cached schedule equals a
	// freshly computed and frozen one, and each interned problem equals a
	// fresh decode.
	req := decodeRequest(t, spellings[0])
	fresh, err := req.decodeProblem()
	if err != nil {
		t.Fatal(err)
	}
	out, ok := s.cache.Get(hashOf(t, spellings[0]))
	if !ok || out.sch == nil {
		t.Fatal("schedule outcome not cached")
	}
	res, err := core.ScheduleTuned(fresh.h, fresh.g, fresh.a, fresh.sp, req.K, req.Seeds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(fresh.g, fresh.a, fresh.sp); err != nil {
		t.Fatal(err)
	}
	freezeViews(res.Schedule, fresh.a)
	if !reflect.DeepEqual(out.sch, res.Schedule) {
		t.Error("the published schedule changed after publication")
	}
	for si, body := range spellings {
		r := decodeRequest(t, body)
		m, ok := s.problems.Get(internKey(r))
		if !ok {
			t.Fatalf("spelling %d: problem not interned", si)
		}
		if !reflect.DeepEqual(m, fresh.models) {
			t.Errorf("spelling %d: the interned problem changed after publication", si)
		}
	}
}

// equivalenceCase is one problem of TestInMemoryScheduleMatchesDecoded.
type equivalenceCase struct {
	name string
	g    *graph.Graph
	a    *arch.Architecture
	sp   *spec.Spec
	h    core.Heuristic
	k    int
}

// equivalenceCases returns the paper examples under every heuristic, plus
// generated 40-op full-mesh FT2 K=1 and 120-op 8-processor bus FT1 K=1/2
// problems.
func equivalenceCases(t *testing.T, mesh, bus int) []equivalenceCase {
	t.Helper()
	var cases []equivalenceCase
	for _, inst := range []struct {
		name string
		inst *paperex.Instance
	}{{"paper-bus", paperex.BusInstance()}, {"paper-triangle", paperex.TriangleInstance()}} {
		for _, h := range []core.Heuristic{core.Basic, core.FT1, core.FT2} {
			cases = append(cases, equivalenceCase{fmt.Sprintf("%s/%v", inst.name, h), inst.inst.Graph, inst.inst.Arch, inst.inst.Spec, h, inst.inst.K})
		}
	}
	r := rand.New(rand.NewSource(13))
	draw := func(n, ops, procs int, isBus bool, h core.Heuristic, kOf func(i int) int) {
		for i, draws := 0, 0; i < n; draws++ {
			if draws > 20*n {
				t.Fatalf("drew %d of %d schedulable %d-op problems", i, n, ops)
			}
			inst, err := workload.RandomInstance(r, ops, procs, isBus, 0.5)
			if err != nil {
				continue
			}
			cases = append(cases, equivalenceCase{fmt.Sprintf("%d-op-%v-%d", ops, h, i), inst.Graph, inst.Arch, inst.Spec, h, kOf(i)})
			i++
		}
	}
	draw(mesh, 40, 4, false, core.FT2, func(int) int { return 1 })
	draw(bus, 120, 8, true, core.FT1, func(i int) int { return 1 + i%2 })
	return cases
}

// envelopeOrError renders a response envelope, or the error that stops
// it: an equivalence holds only if both sides agree on either.
func envelopeOrError(v any, err error) string {
	if err != nil {
		return "engine error: " + err.Error()
	}
	env, err := renderEnvelope(v)
	if err != nil {
		return "encode error: " + err.Error()
	}
	return string(env)
}

// TestInMemoryScheduleMatchesDecoded: certify and simulate envelopes built
// from the frozen in-memory schedule the server reuses equal those built
// from the schedule decoded from its compact document, the form a client
// holds: the kept schedule carries nothing its wire form does not.
func TestInMemoryScheduleMatchesDecoded(t *testing.T) {
	mesh, bus := 8, 3
	if testing.Short() {
		mesh, bus = 2, 1
	}
	for _, tc := range equivalenceCases(t, mesh, bus) {
		res, err := core.ScheduleTuned(tc.h, tc.g, tc.a, tc.sp, tc.k, 0, core.Options{})
		if err != nil {
			t.Logf("%s: unschedulable, skipped: %v", tc.name, err)
			continue
		}
		kept := res.Schedule
		if err := kept.Validate(tc.g, tc.a, tc.sp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		freezeViews(kept, tc.a)
		compact, err := kept.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		decoded := new(sched.Schedule)
		if err := decoded.UnmarshalJSON(compact); err != nil {
			t.Fatal(err)
		}

		certEnv := func(s *sched.Schedule) string {
			v, err := certify.CertifyWith(s, tc.g, tc.a, tc.sp, tc.k, certify.Options{Workers: 1})
			return envelopeOrError(certifyResponse{Hash: tc.name, Verdict: v}, err)
		}
		if got, want := certEnv(kept), certEnv(decoded); got != want {
			t.Errorf("%s: certify envelopes differ:\nin memory: %.300s\n  decoded: %.300s", tc.name, got, want)
		}

		procs := tc.a.ProcessorNames()
		scenarios := []sim.Scenario{{}}
		for _, p := range []string{procs[0], procs[len(procs)-1]} {
			scenarios = append(scenarios, sim.Scenario{Failures: []sim.Failure{{Proc: p}}})
		}
		for _, sc := range scenarios {
			simEnv := func(s *sched.Schedule) string {
				res, err := sim.Simulate(s, tc.g, tc.a, tc.sp, sc, sim.Config{Iterations: 2, Trace: true})
				return envelopeOrError(simulateResponse{Hash: tc.name, Result: res}, err)
			}
			if got, want := simEnv(kept), simEnv(decoded); got != want {
				t.Errorf("%s, scenario %v: simulate envelopes differ", tc.name, sc.Failures)
			}
		}
	}
}
