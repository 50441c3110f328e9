package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/sched"
	"ftsched/internal/serve"
)

// A serve run takes setupPerPass set-up samples before each pass, so that
// they span the run as the other metrics do: the host's speed drifts over
// seconds, and a single burst of samples catches one moment of it. Each
// sample is the mean time of setupBatch serve.New calls, started after a
// forced collection so that the heap left by earlier work does not enter
// the timing. setup_s is their median.
const (
	setupPerPass = 4
	setupBatch   = 100
)

// warmUnits is the number of units sent through a throwaway server before
// timing starts, so that the first timed pass does not pay for heap growth.
const warmUnits = 8

// serveWorkload is a closed-loop traffic mix against an in-process server.
// Pass k of a run sends the units of inputs(seed, k) through a fresh server.
// With tailPerPass, the tail latency is taken within each complete pass and
// the run reports the median over passes; otherwise it is taken over the
// whole run.
type serveWorkload struct {
	clients     int
	tailPerPass bool
	inputs      func(seed int64, k int) (*serveInputs, error)
}

// response is the outcome of one request of a pass. The body is checked
// and dropped as soon as the request completes, so the benchmark holds no
// copies of the program's output beside the server's own.
type response struct {
	done       bool
	ok         bool // a 200 whose body passed the checks
	status     int
	cache      string        // X-Ftsched-Cache: hit, shared or miss
	start, end time.Duration // offsets from the pass start
}

// passResult is one pass of a workload's units through one server. wall is
// the pass's wall time less checking, the clients' mean time spent checking.
type passResult struct {
	resp     []response
	wall     time.Duration
	checking time.Duration
}

// send times one request from request bytes to response bytes and returns
// the outcome and the body. No socket is involved: the handler runs on the
// calling goroutine.
func send(h http.Handler, rq *request, t0 time.Time) (response, []byte) {
	start := time.Since(t0)
	req := httptest.NewRequest(http.MethodPost, "/v1/"+rq.kind, bytes.NewReader(rq.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	end := time.Since(t0)
	return response{
		done:   true,
		status: rec.Code,
		cache:  rec.Header().Get("X-Ftsched-Cache"),
		start:  start,
		end:    end,
	}, rec.Body.Bytes()
}

// runPass drives the units through h with the given number of closed-loop
// clients. Clients stop taking units once deadline has passed (a zero
// deadline runs every unit); a unit in progress completes. After each
// response, outside its latency, the client checks the body with chk (nil
// checks nothing) and drops it; the pass's wall time leaves the checking
// out. When tr is not nil, every request is recorded as a span on its
// client's track, and reqSpan[id] receives the span's index.
func runPass(h http.Handler, in *serveInputs, clients int, deadline time.Time, chk *checker, tr *tracer, reqSpan []int) passResult {
	resp := make([]response, in.requests)
	checking := make([]time.Duration, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := fmt.Sprintf("client%d", c)
			for {
				u := int(next.Add(1) - 1)
				if u >= len(in.units) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				for i := range in.units[u] {
					rq := &in.units[u][i]
					rs, body := send(h, rq, t0)
					if chk != nil {
						t := time.Now()
						rs.ok = chk.check(rq, rs.status, body)
						checking[c] += time.Since(t)
					}
					resp[rq.id] = rs
					if tr != nil {
						reqSpan[rq.id] = tr.add(span{parent: -1, req: rq.id, track: track,
							name: "request." + rq.kind, start: t0.Add(rs.start), end: t0.Add(rs.end)})
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var mean time.Duration
	for _, d := range checking {
		mean += d / time.Duration(clients)
	}
	return passResult{resp: resp, wall: time.Since(t0) - mean, checking: mean}
}

// refKey identifies the responses of a pass that must be byte-identical:
// every request of one kind for one problem carries the same body.
type refKey struct {
	problem int
	kind    string
}

// checker classifies responses as the clients receive them; it is safe for
// concurrent use. An operation is ok when it got a 200 whose body passed the
// checks. A 200 that fails a check is also a wrong answer; a non-200 is a
// miss but not a wrong answer. The checker keeps a digest of each (problem,
// kind)'s first valid body, not the body.
type checker struct {
	in       *serveInputs
	mu       sync.Mutex
	ref      map[refKey][sha256.Size]byte
	byStatus map[int]int
	wrong    int
	firstErr error
}

func newChecker(in *serveInputs) *checker {
	return &checker{in: in, ref: make(map[refKey][sha256.Size]byte), byStatus: make(map[int]int)}
}

// nextPass points the checker at a new pass's traffic, keeping the counts.
// It must not run during a pass.
func (c *checker) nextPass(in *serveInputs) {
	c.in = in
	c.ref = make(map[refKey][sha256.Size]byte)
}

// check reports whether the response counts toward ok_share. The first 200
// body of a (problem, kind) is validated; every other must have its digest.
func (c *checker) check(rq *request, status int, body []byte) bool {
	sum := sha256.Sum256(body)
	key := refKey{rq.problem, rq.kind}
	c.mu.Lock()
	c.byStatus[status]++
	ref, seen := c.ref[key]
	c.mu.Unlock()
	if status != http.StatusOK {
		return false
	}
	if !seen {
		if err := c.validate(rq, body); err != nil {
			c.fail(fmt.Errorf("request %d (%s, problem %d): %w", rq.id, rq.kind, rq.problem, err))
			return false
		}
		c.mu.Lock()
		if ref, seen = c.ref[key]; !seen { // another client may have stored it meanwhile
			c.ref[key], ref = sum, sum
		}
		c.mu.Unlock()
	}
	if ref != sum {
		c.fail(fmt.Errorf("request %d (%s, problem %d): body differs from the first response", rq.id, rq.kind, rq.problem))
		return false
	}
	return true
}

func (c *checker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// validate checks the first 200 body of a (problem, kind): a schedule must
// decode and validate against its problem, a certified verdict must carry a
// finite bound, and a simulation must report its one iteration.
func (c *checker) validate(rq *request, body []byte) error {
	p := &c.in.problems[rq.problem]
	switch rq.kind {
	case "schedule":
		var env struct {
			K        int             `json:"k"`
			Makespan float64         `json:"makespan"`
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		sch := new(sched.Schedule)
		if err := sch.UnmarshalJSON(env.Schedule); err != nil {
			return err
		}
		if err := sch.Validate(p.inst.Graph, p.inst.Arch, p.inst.Spec); err != nil {
			return err
		}
		if env.K != p.k || env.Makespan != sch.Makespan() {
			return fmt.Errorf("envelope k=%d makespan=%v, schedule k=%d makespan=%v", env.K, env.Makespan, p.k, sch.Makespan())
		}
	case "certify":
		var env struct {
			Verdict *struct {
				Certified        bool
				FailureFreeBound float64
				WorstBound       float64
			} `json:"verdict"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		v := env.Verdict
		if v == nil {
			return fmt.Errorf("no verdict")
		}
		if v.Certified && (math.IsInf(v.WorstBound, 0) || math.IsNaN(v.WorstBound) || v.WorstBound <= 0) {
			return fmt.Errorf("certified verdict with bound %v", v.WorstBound)
		}
	case "simulate":
		var env struct {
			Result *struct {
				Iterations []json.RawMessage
			} `json:"result"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		if env.Result == nil || len(env.Result.Iterations) != 1 {
			return fmt.Errorf("simulation result without exactly one iteration")
		}
	}
	return nil
}

// tally appends the latency in ms of every completed response of a pass to
// lat, and returns how many requests completed and how many were not ok.
func tally(p *passResult, lat *[]float64) (attempted, failed int64) {
	for i := range p.resp {
		rs := &p.resp[i]
		if !rs.done {
			continue
		}
		attempted++
		*lat = append(*lat, ms(rs.end-rs.start))
		if !rs.ok {
			failed++
		}
	}
	return attempted, failed
}

// statusSummary renders the non-200 counts, e.g. "500:4".
func (c *checker) statusSummary() string {
	var codes []int
	for code := range c.byStatus {
		if code != http.StatusOK {
			codes = append(codes, code)
		}
	}
	sort.Ints(codes)
	var b bytes.Buffer
	for _, code := range codes {
		fmt.Fprintf(&b, " %d:%d", code, c.byStatus[code])
	}
	if b.Len() == 0 {
		return " none"
	}
	return b.String()
}

// warmServe sends the first warmUnits units through a throwaway server.
func warmServe(w serveWorkload, in *serveInputs) {
	warm := &serveInputs{problems: in.problems, units: in.units[:min(warmUnits, len(in.units))], requests: in.requests}
	runPass(newServer().Handler(), warm, w.clients, time.Time{}, nil, nil, nil)
}

// newServer builds a server with the production defaults.
func newServer() *serve.Server { return serve.New(serve.Config{}) }

// serveSetups returns setupPerPass set-up samples, in seconds.
func serveSetups() []float64 {
	out := make([]float64, setupPerPass)
	for i := range out {
		runtime.GC()
		t := time.Now()
		for j := 0; j < setupBatch; j++ {
			newServer()
		}
		out[i] = time.Since(t).Seconds() / setupBatch
	}
	return out
}

// runServe is the untraced run of a serve workload: passes of fresh
// traffic, each through a fresh server (cold cache), until the passes add
// up to the timed window. Each pass's traffic and set-up samples are taken
// before the pass, and its responses are checked as they arrive, all
// outside the timed window.
func runServe(w serveWorkload, seed int64, seconds float64, out *report) error {
	in, err := w.inputs(seed, 0)
	if err != nil {
		return err
	}
	warmServe(w, in)
	chk := newChecker(in)
	var (
		setups    []float64
		lat       []float64
		tails     [][]float64
		wall      time.Duration
		checking  time.Duration
		attempted int64
		failed    int64
		passes    int
		setAside  int
	)
	window := time.Duration(seconds * float64(time.Second))
	for ; wall < window; passes++ {
		if passes > 0 {
			if in, err = w.inputs(seed, passes); err != nil {
				return err
			}
			chk.nextPass(in)
		}
		setAside += in.setAside
		setups = append(setups, serveSetups()...)
		p := runPass(newServer().Handler(), in, w.clients, time.Now().Add(window-wall), chk, nil, nil)
		wall += p.wall
		checking += p.checking
		var passLat []float64
		a, f := tally(&p, &passLat)
		attempted += a
		failed += f
		lat = append(lat, passLat...)
		if w.tailPerPass && a == int64(in.requests) {
			tails = append(tails, passLat)
		}
	}
	if !w.tailPerPass {
		tails = [][]float64{lat}
	}
	out.notef("passes %d, requests %d, clients %d, non-200 by status:%s", passes, attempted, w.clients, chk.statusSummary())
	out.notef("drawn problems set aside because their certify verdict does not encode: %d", setAside)
	out.notef("checking took %.1f%% of each client's time, left out of the timed wall", 100*checking.Seconds()/(wall+checking).Seconds())
	if chk.firstErr != nil {
		out.notef("wrong answers %d, first: %v", chk.wrong, chk.firstErr)
	}
	out.correct = chk.wrong == 0
	return out.endToEnd(attempted, failed, float64(attempted)/wall.Seconds(), lat, tails, setups, setupBatch)
}
