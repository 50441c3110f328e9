package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ftsched/internal/arch"
	"ftsched/internal/campaign"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/serve"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// spanDir is where a traced run writes its span file, relative to the
// working directory.
const spanDir = ".bench_build/spans"

// perLayer lists the traced run's metrics in print order. A workload that
// does not reach a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"serve.self_ms", "ms"},
	{"serve.cache_hit_share", "ratio"},
	{"certify.set_aside", "count"},
	{"model.decode_ms", "ms"},
	{"model.bytes_in", "bytes"},
	{"model.encode_ms", "ms"},
	{"core.schedule_ms", "ms"},
	{"core.runs", "count"},
	{"core.steps", "count"},
	{"core.evals", "count"},
	{"core.gap.searches", "count"},
	{"sched.validate_ms", "ms"},
	{"sched.encode_ms", "ms"},
	{"sched.decode_ms", "ms"},
	{"certify.certify_ms", "ms"},
	{"certify.patterns.checked", "count"},
	{"certify.evals", "count"},
	{"sim.compile_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"campaign.scenario_us", "us"},
	{"campaign.block_busy_share", "ratio"},
	{"campaign.iterations", "count"},
	{"campaign.iterations.incomplete", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// span is one timed interval of the traced run. Spans of one request (or
// campaign) share req; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	parent     int
	req        int
	track      string
	name       string
	start, end time.Time
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records s and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// child runs f inside a span named name under parent.
func (t *tracer) child(parent, req int, name string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(span{parent: parent, req: req, track: "replay", name: name, start: start, end: time.Now()})
	return err
}

// layerTimes sums the child spans by name, and the time each span's
// children cover, by parent index.
func (t *tracer) layerTimes() (byName map[string]*layerTime, children []time.Duration) {
	byName = make(map[string]*layerTime)
	children = make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		d := s.end.Sub(s.start)
		lt := byName[s.name]
		if lt == nil {
			lt = &layerTime{}
			byName[s.name] = lt
		}
		lt.calls++
		lt.total += d
		children[s.parent] += d
	}
	return byName, children
}

// layerTime is the summed time of one named layer call.
type layerTime struct {
	calls int
	total time.Duration
}

// perCall is the mean duration in ms of one call, or 0 without calls.
func (lt *layerTime) perCall() float64 {
	if lt == nil || lt.calls == 0 {
		return 0
	}
	return ms(lt.total) / float64(lt.calls)
}

func (lt *layerTime) count() int {
	if lt == nil {
		return 0
	}
	return lt.calls
}

// write stores the spans as a Chrome trace (Perfetto loads it), one thread
// per track, with the request id and parent span in each event's args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := make(map[string]int)
	var events []event
	for i, s := range t.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.track}})
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Sub(t.t0)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Args: map[string]any{"span": i, "parent": s.parent, "req": s.req},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fillPerLayer reports 0 for every per-layer metric the workload did not
// reach, so every traced run prints the full set.
func fillPerLayer(out *report) {
	for _, m := range perLayer {
		if _, ok := out.metrics[m.name]; !ok {
			out.set(m.name, 0, m.unit, "not reached by this workload")
		}
	}
}

// traceServe is the traced run of a serve workload. After a warm-up, the
// first pass of the untraced run's traffic runs untraced and unchecked, as
// the base of the runtime metrics, then untraced and checked, as the base
// of the tracing overhead. A third pass, through a fresh server, checks
// every response, records one span per request and reads each response's
// cache state. The third pass's requests
// are then replayed serially through the public layer functions the handler
// calls for that kind and cache state, each call a child span of its
// request; a request's serve self time is its span minus its children.
func traceServe(w serveWorkload, name string, seed int64, out *report) error {
	in, err := w.inputs(seed, 0)
	if err != nil {
		return err
	}
	warmServe(w, in)
	r0 := readRuntime()
	runPass(newServer().Handler(), in, w.clients, time.Time{}, nil, nil, nil)
	rt := r0.to(readRuntime())
	chk := newChecker(in)
	base := runPass(newServer().Handler(), in, w.clients, time.Time{}, chk, nil, nil)

	tr := newTracer()
	reqSpan := make([]int, in.requests)
	srv := newServer()
	chk.nextPass(in)
	traced := runPass(srv.Handler(), in, w.clients, time.Time{}, chk, tr, reqSpan)
	counters := srv.Sink().Snapshot()

	var lat []float64
	for _, p := range []*passResult{&base, &traced} {
		a, f := tally(p, &lat)
		out.attempted += a
		out.failed += f
	}
	units := in.units
	var requests, hits, bytesIn int
	for _, unit := range units {
		for _, rq := range unit {
			rs := &traced.resp[rq.id]
			requests++
			bytesIn += len(rq.body)
			if rs.status == http.StatusOK && (rs.cache == "hit" || rs.cache == "shared") {
				hits++
			}
		}
	}
	out.correct = chk.wrong == 0
	if chk.firstErr != nil {
		out.notef("wrong answers %d, first: %v", chk.wrong, chk.firstErr)
	}

	coreRuns, err := replay(in, units, &traced, tr, reqSpan)
	if err != nil {
		return err
	}
	layers, children := tr.layerTimes()
	var self time.Duration
	for _, unit := range units {
		for _, rq := range unit {
			s := tr.spans[reqSpan[rq.id]]
			self += s.end.Sub(s.start) - children[reqSpan[rq.id]]
		}
	}
	perReq := func(d time.Duration) float64 { return ms(d) / float64(requests) }
	reqBase := fmt.Sprintf("per request, %d requests", requests)
	calls := func(n string) string { return fmt.Sprintf("per call, %d calls", layers[n].count()) }
	total := func(n string) time.Duration {
		if lt := layers[n]; lt != nil {
			return lt.total
		}
		return 0
	}
	out.notef("traced pass %d requests, %d clients; non-200 by status:%s", requests, w.clients, chk.statusSummary())
	out.set("serve.self_ms", perReq(self), "ms", reqBase+", request span minus replayed layer spans")
	out.set("serve.cache_hit_share", float64(hits)/float64(requests), "ratio", fmt.Sprintf("%d hit or shared of %d requests", hits, requests))
	out.set("certify.set_aside", float64(in.setAside), "count", "drawn problems left out of the traced pass: certify verdict does not encode")
	out.set("model.decode_ms", perReq(total("model.decode")), "ms", reqBase)
	out.set("model.bytes_in", float64(bytesIn)/float64(requests), "bytes", reqBase)
	out.set("model.encode_ms", perReq(total("model.encode")), "ms", reqBase+", three MarshalJSON per content hash")
	out.set("core.schedule_ms", layers["core.schedule"].perCall(), "ms", calls("core.schedule")+" of core.ScheduleTuned")
	out.set("core.runs", float64(coreRuns), "count", "heuristic runs = schedule misses x (seeds+1)")
	for _, c := range []string{"core.steps", "core.evals", "core.gap.searches", "certify.patterns.checked", "certify.evals"} {
		out.set(c, float64(counters[c]), "count", "server sink, traced pass")
	}
	for _, n := range []string{"sched.validate", "sched.encode", "sched.decode", "certify.certify", "sim.compile", "sim.run"} {
		out.set(n+"_ms", layers[n].perCall(), "ms", calls(n))
	}
	out.set("go.alloc_bytes_per_op", rt.allocBytes/float64(requests), "bytes", reqBase+", untraced unchecked pass")
	out.set("go.gc_cpu_share", rt.gcShare, "ratio", "of available CPU, untraced unchecked pass")
	out.set("trace.overhead_share", traced.wall.Seconds()/base.wall.Seconds(), "ratio",
		fmt.Sprintf("traced pass %.3fs / untraced pass %.3fs", traced.wall.Seconds(), base.wall.Seconds()))
	fillPerLayer(out)
	return writeSpans(tr, name, seed, out)
}

func writeSpans(tr *tracer, name string, seed int64, out *report) error {
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	out.notef("spans: %s (%d spans)", path, len(tr.spans))
	return nil
}

// replay re-executes the traced pass's requests serially, in request order,
// through the public functions the handler calls: model decode and the
// content-hash encodes for every request, and for a cache miss the engine,
// validation and schedule encode/decode steps of its kind. The schedule of
// a problem is computed once, at its first miss, as the server's cache
// does. It returns the number of heuristic runs.
func replay(in *serveInputs, units [][]request, p *passResult, tr *tracer, reqSpan []int) (coreRuns int, err error) {
	sink := obs.NewSink() // the engines report into a sink, as they do in the server
	compact := make(map[int][]byte)
	for _, unit := range units {
		for i := range unit {
			rq := &unit[i]
			rs := &p.resp[rq.id]
			parent, id := reqSpan[rq.id], rq.id
			pr := &in.problems[rq.problem]
			miss := rs.status != http.StatusOK || rs.cache == "miss"
			var env serve.ScheduleRequest // envelope decode is the serve layer's own work
			if err := json.Unmarshal(rq.body, &env); err != nil {
				return 0, err
			}
			var (
				g  = new(graph.Graph)
				a  = new(arch.Architecture)
				sp = spec.New()
			)
			if err := tr.child(parent, id, "model.decode", func() error {
				if err := g.UnmarshalJSON(env.Graph); err != nil {
					return err
				}
				if err := a.UnmarshalJSON(env.Arch); err != nil {
					return err
				}
				return sp.UnmarshalJSON(env.Spec)
			}); err != nil {
				return 0, err
			}
			hashes := 1
			if rq.kind != "schedule" && miss {
				hashes = 2 // the request's own key, then its schedule's key
			}
			if err := tr.child(parent, id, "model.encode", func() error {
				for h := 0; h < hashes; h++ {
					for _, m := range []json.Marshaler{g, a, sp} {
						if _, err := m.MarshalJSON(); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				return 0, err
			}
			if !miss {
				continue
			}
			if rq.kind == "schedule" || compact[rq.problem] == nil {
				c, err := replaySchedule(tr, parent, id, pr, g, a, sp, sink)
				if err != nil {
					return 0, err
				}
				compact[rq.problem] = c
				coreRuns += pr.seeds + 1
			}
			if rq.kind == "schedule" {
				continue
			}
			sch := new(sched.Schedule)
			if err := tr.child(parent, id, "sched.decode", func() error { return sch.UnmarshalJSON(compact[rq.problem]) }); err != nil {
				return 0, err
			}
			switch rq.kind {
			case "certify":
				err = tr.child(parent, id, "certify.certify", func() error {
					_, err := certify.CertifyWith(sch, g, a, sp, pr.k, certify.Options{Workers: 1, Obs: sink})
					return err
				})
			case "simulate":
				var m *sim.Model
				if err = tr.child(parent, id, "sim.compile", func() (err error) {
					m, err = sim.Compile(sch, g, a, sp)
					return err
				}); err != nil {
					return 0, err
				}
				sc := sim.Scenario{Failures: []sim.Failure{{Proc: a.ProcessorNames()[0]}}}
				err = tr.child(parent, id, "sim.run", func() error {
					_, err := m.NewRunner().Run(sc, sim.Config{Obs: sink})
					return err
				})
			}
			if err != nil {
				return 0, err
			}
		}
	}
	return coreRuns, nil
}

// replaySchedule runs the schedule computation of a cache miss: the tuned
// heuristic, validation, and the compact and indented encodings. It returns
// the compact schedule document.
func replaySchedule(tr *tracer, parent, id int, pr *problem, g *graph.Graph, a *arch.Architecture, sp *spec.Spec, sink *obs.Sink) ([]byte, error) {
	var res *core.Result
	if err := tr.child(parent, id, "core.schedule", func() (err error) {
		res, err = core.ScheduleTuned(pr.heur, g, a, sp, pr.k, pr.seeds, core.Options{Workers: 1, Obs: sink})
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.child(parent, id, "sched.validate", func() error { return res.Schedule.Validate(g, a, sp) }); err != nil {
		return nil, err
	}
	var compact []byte
	err := tr.child(parent, id, "sched.encode", func() (err error) {
		if compact, err = res.Schedule.MarshalJSON(); err != nil {
			return err
		}
		var indented bytes.Buffer
		return json.Indent(&indented, compact, "", "  ")
	})
	return compact, err
}

// traceCampaigns is the number of campaigns of the traced run.
const traceCampaigns = 32

// traceCampaign is the traced run of the campaign workload: the first
// traceCampaigns campaigns of the untraced run's sequence run untraced,
// then with an obs sink whose block spans give the runner's busy time.
func traceCampaign(seed int64, out *report) error {
	const n = traceCampaigns
	models := make([]*sim.Model, n)
	var sched, comp time.Duration
	for c := range models {
		var st setupTimes
		var err error
		if models[c], st, err = campaignModel(seed, c); err != nil {
			return err
		}
		sched += st.schedule
		comp += st.compile
	}
	reports := make([]*campaign.Report, n)
	if _, err := campaign.Run(models[0], campaignConfig(seed, 0, 1, nil)); err != nil { // warm-up
		return fmt.Errorf("campaign 0: %w", err)
	}
	r0 := readRuntime()
	start := time.Now()
	for c := 0; c < n; c++ {
		var err error
		if reports[c], err = campaign.Run(models[c], campaignConfig(seed, c, campWorkers, nil)); err != nil {
			return fmt.Errorf("campaign %d: %w", c, err)
		}
	}
	baseWall := time.Since(start)
	rt := r0.to(readRuntime())

	tr := newTracer()
	var (
		tracedWall, busy       time.Duration
		iterations, incomplete int64
		wrong                  int
		firstErr               error
	)
	for c := 0; c < n; c++ {
		sink := obs.NewSink()
		sinkStart := time.Now()
		rep, err := campaign.Run(models[c], campaignConfig(seed, c, campWorkers, sink))
		end := time.Now()
		if err != nil {
			return fmt.Errorf("traced campaign %d: %w", c, err)
		}
		tracedWall += end.Sub(sinkStart)
		root := tr.add(span{parent: -1, req: c, track: "campaign", name: "campaign", start: sinkStart, end: end})
		for _, ev := range sink.Events() {
			if ev.Name != "block" {
				continue
			}
			busy += ev.End - ev.Start
			tr.add(span{parent: root, req: c, track: ev.Track, name: "block", start: sinkStart.Add(ev.Start), end: sinkStart.Add(ev.End)})
		}
		snap := sink.Snapshot()
		iterations += snap["campaign.iterations"]
		incomplete += snap["campaign.iterations.incomplete"]
		err = checkCampaign(rep)
		if err == nil {
			if err = sameReport(reports[c], rep); err != nil {
				err = fmt.Errorf("with and without an obs sink: %w", err)
			}
		}
		if err != nil {
			wrong++
			if firstErr == nil {
				firstErr = fmt.Errorf("campaign %d: %w", c, err)
			}
		}
	}
	out.attempted = int64(2 * n * campScenarios)
	out.failed = int64(wrong * campScenarios)
	out.correct = wrong == 0
	if firstErr != nil {
		out.notef("failed checks %d, first: %v", wrong, firstErr)
	}
	scenarios := float64(n * campScenarios)
	out.notef("%d campaigns of %d scenarios, one model each, %d workers", n, campScenarios, campWorkers)
	out.set("core.schedule_ms", ms(sched)/n, "ms", fmt.Sprintf("per model set-up, %d calls of core.Schedule", n))
	out.set("sim.compile_ms", ms(comp)/n, "ms", fmt.Sprintf("per model set-up, %d calls of sim.Compile", n))
	out.set("campaign.scenario_us", float64(busy)/float64(time.Microsecond)/scenarios, "us", fmt.Sprintf("block busy time per scenario, %.0f scenarios", scenarios))
	out.set("campaign.block_busy_share", busy.Seconds()/(tracedWall.Seconds()*campWorkers), "ratio", "block busy time / (traced wall x workers)")
	out.set("campaign.iterations", float64(iterations), "count", "sink counter, traced campaigns")
	out.set("campaign.iterations.incomplete", float64(incomplete), "count", "sink counter, traced campaigns")
	out.set("go.alloc_bytes_per_op", rt.allocBytes/scenarios, "bytes", "per scenario, untraced campaigns")
	out.set("go.gc_cpu_share", rt.gcShare, "ratio", "of available CPU, untraced campaigns")
	out.set("trace.overhead_share", tracedWall.Seconds()/baseWall.Seconds(), "ratio",
		fmt.Sprintf("traced %.3fs / untraced %.3fs", tracedWall.Seconds(), baseWall.Seconds()))
	fillPerLayer(out)
	return writeSpans(tr, "campaign", seed, out)
}
