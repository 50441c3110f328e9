package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/arch"
	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/sched"
	"ftsched/internal/sim"
)

// Config tunes a Server. The zero value is production-ready: a
// GOMAXPROCS-sized worker budget, a 4096-outcome cache, a 60s request
// timeout, and a 16 MiB body cap.
type Config struct {
	// Workers is the global engine-worker budget shared by every in-flight
	// request; per-request budgets clamp to it. 0 uses GOMAXPROCS.
	Workers int
	// CacheEntries bounds the response LRU and, separately, the LRU of
	// decoded problems; < 0 disables both caches, 0 uses 4096.
	CacheEntries int
	// DefaultTimeout caps each request's wall-clock time, queue wait
	// included; per-request timeout_ms clamps to it. 0 uses 60s; < 0
	// disables the cap.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies. 0 uses 16 MiB.
	MaxBodyBytes int64
	// Sink receives the server's counters and the engines' instrumentation,
	// re-exported at /metrics. Nil allocates a fresh sink.
	Sink *obs.Sink
}

// batchLimit bounds the element count of one batch request.
const batchLimit = 256

// Server is the scheduling service: an http.Handler exposing the engines
// behind the content-hash cache, single-flight deduplication, and the
// bounded admission pool.
type Server struct {
	cfg      Config
	sink     *obs.Sink
	sem      *semaphore
	cache    *lruCache[*outcome]
	problems *lruCache[*models]
	flights  *flightGroup
	mux      *http.ServeMux
	draining atomic.Bool
	ins      serverInstruments
}

// serverInstruments are the server's pre-resolved obs counters.
type serverInstruments struct {
	requests    *obs.Counter // HTTP requests accepted (batch elements count once each)
	ok          *obs.Counter // 2xx responses
	failed      *obs.Counter // non-2xx responses
	cacheHits   *obs.Counter // responses served from the LRU
	cacheMisses *obs.Counter // requests that had to compute (or join a flight)
	evictions   *obs.Counter // LRU entries displaced
	sfShared    *obs.Counter // followers that shared a leader's engine run
	runSched    *obs.Counter // scheduling engine runs
	runCertify  *obs.Counter // certification engine runs
	runSimulate *obs.Counter // simulation engine runs
	probHits    *obs.Counter // requests whose problem was already decoded
	probMisses  *obs.Counter // requests that decoded their problem
}

func (in *serverInstruments) resolve(s *obs.Sink) {
	in.requests = s.Counter("serve.requests")
	in.ok = s.Counter("serve.responses.ok")
	in.failed = s.Counter("serve.responses.error")
	in.cacheHits = s.Counter("serve.cache.hits")
	in.cacheMisses = s.Counter("serve.cache.misses")
	in.evictions = s.Counter("serve.cache.evictions")
	in.sfShared = s.Counter("serve.singleflight.shared")
	in.runSched = s.Counter("serve.engine.schedule")
	in.runCertify = s.Counter("serve.engine.certify")
	in.runSimulate = s.Counter("serve.engine.simulate")
	in.probHits = s.Counter("serve.problems.hits")
	in.probMisses = s.Counter("serve.problems.misses")
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 4096
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0 // newLRUCache(0) disables both caches
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 60 * time.Second
	} else if cfg.DefaultTimeout < 0 {
		cfg.DefaultTimeout = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Sink == nil {
		cfg.Sink = obs.NewSink()
	}
	s := &Server{
		cfg:      cfg,
		sink:     cfg.Sink,
		sem:      newSemaphore(int64(cfg.Workers)),
		cache:    newLRUCache[*outcome](cfg.CacheEntries),
		problems: newLRUCache[*models](cfg.CacheEntries),
		flights:  newFlightGroup(),
		mux:      http.NewServeMux(),
	}
	s.ins.resolve(s.sink)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/schedule", s.single(s.handleSchedule, true))
	s.mux.HandleFunc("/v1/certify", s.single(s.handleCertify, false))
	s.mux.HandleFunc("/v1/simulate", s.single(s.handleSimulate, false))
	s.mux.HandleFunc("/v1/schedule/batch", s.batch(s.handleSchedule))
	s.mux.HandleFunc("/v1/certify/batch", s.batch(s.handleCertify))
	s.mux.HandleFunc("/v1/simulate/batch", s.batch(s.handleSimulate))
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Sink returns the observability sink backing /metrics.
func (s *Server) Sink() *obs.Sink { return s.sink }

// SetDraining flips the health endpoint to 503 so load balancers stop
// routing new traffic while in-flight requests finish (graceful drain).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.sink); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// httpError is a handler failure carrying the HTTP status it maps to.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// badRequest wraps a client-side failure.
func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// engineError maps an engine failure onto an HTTP status: deterministic
// problem rejections are 422 (the request is well-formed but unsatisfiable),
// timeouts and cancellations are 504, anything else is a 500.
func engineError(err error) *httpError {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he
	case errors.Is(err, core.ErrInfeasible), errors.Is(err, core.ErrDeadlineMissed):
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, core.ErrCanceled), errors.Is(err, certify.ErrCanceled), errors.Is(err, sim.ErrCanceled):
		return &httpError{status: http.StatusGatewayTimeout, msg: "request timed out or was canceled"}
	default:
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// kindHandler computes one request kind from a decoded body. The format
// argument is "" (JSON envelope) or "cli".
type kindHandler func(ctx context.Context, body []byte, format string) (*outcome, string, *httpError)

// single adapts a kindHandler to a direct endpoint. allowCLI gates the
// ?format=cli rendering (schedule only: the other kinds have no CLI
// byte-contract to mirror).
func (s *Server) single(h kindHandler, allowCLI bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.ins.requests.Inc()
		if r.Method != http.MethodPost {
			s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
			return
		}
		format := r.URL.Query().Get("format")
		switch {
		case format == "" || (format == "cli" && allowCLI):
		case format == "cli":
			s.writeError(w, badRequest("format=cli applies to /v1/schedule only"))
			return
		default:
			s.writeError(w, badRequest("unknown format %q (want cli or default)", format))
			return
		}
		body, herr := s.readBody(w, r)
		if herr != nil {
			s.writeError(w, herr)
			return
		}
		out, cacheState, herr := h(r.Context(), body, format)
		if herr != nil {
			s.writeError(w, herr)
			return
		}
		resp := out.envelope
		if format == "cli" {
			var err error
			if resp, err = out.cliBytes(); err != nil {
				s.writeError(w, engineError(err))
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Ftsched-Cache", cacheState)
		s.ins.ok.Inc()
		w.Write(resp)
	}
}

// batch adapts a kindHandler to its /batch endpoint: elements are handled
// concurrently (the global admission pool still bounds total engine
// workers) and the responses are returned in request order, so batch output
// is deterministic regardless of completion order.
func (s *Server) batch(h kindHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.ins.requests.Inc()
			s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
			return
		}
		body, herr := s.readBody(w, r)
		if herr != nil {
			s.ins.requests.Inc()
			s.writeError(w, herr)
			return
		}
		var breq BatchRequest
		if err := strictUnmarshal(body, &breq); err != nil {
			s.ins.requests.Inc()
			s.writeError(w, badRequest("batch: %v", err))
			return
		}
		if len(breq.Requests) == 0 {
			s.ins.requests.Inc()
			s.writeError(w, badRequest("batch: empty requests"))
			return
		}
		if len(breq.Requests) > batchLimit {
			s.ins.requests.Inc()
			s.writeError(w, badRequest("batch: %d requests exceed the limit of %d", len(breq.Requests), batchLimit))
			return
		}
		items := make([]BatchItem, len(breq.Requests))
		var wg sync.WaitGroup
		for i, raw := range breq.Requests {
			s.ins.requests.Inc()
			wg.Add(1)
			go func(i int, raw json.RawMessage) {
				defer wg.Done()
				out, _, herr := h(r.Context(), raw, "")
				if herr != nil {
					s.ins.failed.Inc()
					items[i] = BatchItem{Status: herr.status, Body: errorBody(herr)}
					return
				}
				s.ins.ok.Inc()
				items[i] = BatchItem{Status: http.StatusOK, Body: out.envelope}
			}(i, raw)
		}
		wg.Wait()
		resp, err := json.MarshalIndent(BatchResponse{Responses: items}, "", "  ")
		if err != nil {
			s.writeError(w, engineError(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(resp, '\n'))
	}
}

// readBody drains the capped request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *httpError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("read body: %v", err)
	}
	return body, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data:
// a typo'd option must fail loudly rather than silently fall out of the
// content hash.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// errorBody renders the JSON error document.
func errorBody(he *httpError) []byte {
	data, err := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: he.msg})
	if err != nil { // a string field cannot fail to marshal
		data = []byte(`{"error":"internal error"}`)
	}
	return append(data, '\n')
}

func (s *Server) writeError(w http.ResponseWriter, he *httpError) {
	s.ins.failed.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.status)
	w.Write(errorBody(he))
}

// requestContext derives the request's execution context: the per-request
// timeout_ms clamped to the server default (queue wait counts against it).
func (s *Server) requestContext(ctx context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		req := time.Duration(timeoutMS) * time.Millisecond
		if timeout == 0 || req < timeout {
			timeout = req
		}
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// clampWorkers resolves a per-request worker budget against the global one:
// unset (0) runs sequentially — on a shared server, parallelism is opt-in —
// and any request is capped by the server's total budget.
func (s *Server) clampWorkers(requested int) int {
	if requested <= 1 {
		return 1
	}
	if int64(requested) > s.sem.Cap() {
		return int(s.sem.Cap())
	}
	return requested
}

// cancelFlag arms a cooperative cancel flag from ctx; the returned stop
// function must be deferred.
func cancelFlag(ctx context.Context) (*atomic.Bool, func()) {
	flag := new(atomic.Bool)
	if ctx.Err() != nil {
		flag.Store(true)
		return flag, func() {}
	}
	if ctx.Done() == nil {
		return flag, func() {}
	}
	done := make(chan struct{})
	go func() {
		select { //ftlint:allow-nondet watcher teardown race only decides whether a finished run sees the flag; a completed run is bit-identical either way
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return flag, func() { close(done) }
}

// problemFor validates the request and returns its decoded problem,
// decoding the graph, arch, and spec documents only when no earlier request
// carried the same bytes.
func (s *Server) problemFor(r *ScheduleRequest) (*problem, error) {
	h, err := r.heuristic()
	if err != nil {
		return nil, err
	}
	key := internKey(r)
	if m, ok := s.problems.Get(key); ok {
		s.ins.probHits.Inc()
		return &problem{models: m, h: h}, nil
	}
	s.ins.probMisses.Inc()
	m, err := r.decodeModels()
	if err != nil {
		return nil, err
	}
	s.problems.Put(key, m)
	return &problem{models: m, h: h}, nil
}

// cachedOutcome is the shared serve pipeline: LRU lookup, then single-flight
// computation, with a bounded retry when a follower inherited the leader's
// cancellation but its own context is still live. It returns the outcome
// and the cache state ("hit", "shared", or "miss") for the response header.
func (s *Server) cachedOutcome(ctx context.Context, key string, compute func() (*outcome, error)) (*outcome, string, *httpError) {
	if out, ok := s.cache.Get(key); ok {
		s.ins.cacheHits.Inc()
		return out, "hit", nil
	}
	s.ins.cacheMisses.Inc()
	for attempt := 0; ; attempt++ {
		out, shared, err := s.flights.Do(key, func() (*outcome, error) {
			// The leader that just landed may have cached this key between
			// our miss and our flight: serve its bytes instead of recomputing.
			if out, ok := s.cache.Get(key); ok {
				return out, nil
			}
			out, err := compute()
			if err != nil {
				return nil, err
			}
			if s.cache.Put(key, out) {
				s.ins.evictions.Inc()
			}
			return out, nil
		})
		if err != nil {
			// A follower that inherited the leader's timeout while its own
			// deadline is still live deserves its own run.
			if shared && ctx.Err() == nil && attempt < 2 && engineError(err).status == http.StatusGatewayTimeout {
				continue
			}
			return nil, "", engineError(err)
		}
		if shared {
			s.ins.sfShared.Inc()
			return out, "shared", nil
		}
		return out, "miss", nil
	}
}

// handleSchedule computes /v1/schedule.
func (s *Server) handleSchedule(ctx context.Context, body []byte, _ string) (*outcome, string, *httpError) {
	var req ScheduleRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, "", badRequest("schedule: %v", err)
	}
	p, err := s.problemFor(&req)
	if err != nil {
		return nil, "", badRequest("schedule: %v", err)
	}
	key, err := canonicalHash("schedule", &req, p, nil)
	if err != nil {
		return nil, "", engineError(err)
	}
	ctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	return s.cachedOutcome(ctx, key, func() (*outcome, error) {
		return s.computeSchedule(ctx, &req, p, key)
	})
}

// computeSchedule runs the scheduling engine under the admission pool and
// renders the response envelope.
func (s *Server) computeSchedule(ctx context.Context, req *ScheduleRequest, p *problem, key string) (*outcome, error) {
	// A dead context must fail deterministically even when the engine would
	// outrun the cancellation watcher on a small problem.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := s.clampWorkers(req.Workers)
	if err := s.sem.Acquire(ctx, int64(workers)); err != nil {
		return nil, err
	}
	defer s.sem.Release(int64(workers))
	flag, stop := cancelFlag(ctx)
	defer stop()
	span := s.sink.StartSpan("serve", "serve.schedule")
	defer span.End()
	s.ins.runSched.Inc()
	opts := core.Options{
		AllowDegraded: req.AllowDegraded,
		NoBroadcast:   req.NoBroadcast,
		NoPressure:    req.NoPressure,
		Deadline:      req.Deadline,
		Workers:       workers,
		Obs:           s.sink,
		Cancel:        flag,
	}
	res, err := core.ScheduleTuned(p.h, p.g, p.a, p.sp, req.K, req.Seeds, opts)
	if err != nil {
		return nil, err
	}
	if err := res.Schedule.Validate(p.g, p.a, p.sp); err != nil {
		return nil, fmt.Errorf("internal error, schedule failed validation: %w", err)
	}
	freezeViews(res.Schedule, p.a)
	return renderSchedule(key, req, res)
}

// freezeViews builds every memoized view of sch that the renderers and the
// certify and simulate engines read: the slot lists of every processor and
// link of a, the sorted name lists, and the transfer grouping. Afterwards
// every accessor they call is a pure read, so the published schedule is
// shared by concurrent requests without a lock.
func freezeViews(sch *sched.Schedule, a *arch.Architecture) {
	for _, p := range a.ProcessorNames() {
		sch.ProcSlots(p)
	}
	for _, l := range a.LinkNames() {
		sch.LinkSlots(l)
	}
	sch.Procs()
	sch.Links()
	sch.Transfers()
}

// scheduleResponse is the default /v1/schedule envelope.
type scheduleResponse struct {
	Hash           string          `json:"hash"`
	Heuristic      string          `json:"heuristic"`
	K              int             `json:"k"`
	Makespan       float64         `json:"makespan"`
	OpSlots        int             `json:"op_slots"`
	ActiveComms    int             `json:"active_comms"`
	PassiveComms   int             `json:"passive_comms"`
	MinReplication int             `json:"min_replication"`
	Schedule       json.RawMessage `json:"schedule"`
}

// renderSchedule builds the cached outcome: the JSON envelope plus the
// frozen schedule itself, which certify and simulate reuse and the CLI
// rendering is drawn from. Rendering is pure formatting of a deterministic
// engine result, so every form is byte-deterministic.
func renderSchedule(key string, req *ScheduleRequest, res *core.Result) (*outcome, error) {
	compact, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, err
	}
	env, err := renderEnvelope(scheduleResponse{
		Hash:           key,
		Heuristic:      req.Heuristic,
		K:              req.K,
		Makespan:       res.Schedule.Makespan(),
		OpSlots:        res.Schedule.NumOpSlots(),
		ActiveComms:    res.Schedule.NumActiveComms(),
		PassiveComms:   res.Schedule.NumPassiveComms(),
		MinReplication: res.MinReplication,
		Schedule:       compact,
	})
	if err != nil {
		return nil, err
	}
	return &outcome{envelope: env, sch: res.Schedule}, nil
}

// renderEnvelope renders a response envelope: indented JSON plus a
// newline.
func renderEnvelope(v any) ([]byte, error) {
	env, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(env, '\n'), nil
}

// scheduleFor reuses the schedule pipeline (cache, single-flight, pool) to
// obtain the problem's schedule: the frozen one its outcome keeps, shared
// read-only with every other request of the problem.
func (s *Server) scheduleFor(ctx context.Context, req *ScheduleRequest, p *problem) (*sched.Schedule, *httpError) {
	key, err := canonicalHash("schedule", req, p, nil)
	if err != nil {
		return nil, engineError(err)
	}
	out, _, herr := s.cachedOutcome(ctx, key, func() (*outcome, error) {
		return s.computeSchedule(ctx, req, p, key)
	})
	if herr != nil {
		return nil, herr
	}
	return out.sch, nil
}

// certifyResponse is the /v1/certify envelope.
type certifyResponse struct {
	Hash    string           `json:"hash"`
	Verdict *certify.Verdict `json:"verdict"`
}

// handleCertify computes /v1/certify: schedule (through the schedule
// cache), then certify the result.
func (s *Server) handleCertify(ctx context.Context, body []byte, _ string) (*outcome, string, *httpError) {
	var req CertifyRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, "", badRequest("certify: %v", err)
	}
	p, err := s.problemFor(&req.ScheduleRequest)
	if err != nil {
		return nil, "", badRequest("certify: %v", err)
	}
	certK := req.K
	if req.CertifyK != nil {
		certK = *req.CertifyK
	}
	if certK < 0 {
		return nil, "", badRequest("certify: negative certify_k (%d)", certK)
	}
	key, err := canonicalHash("certify", &req.ScheduleRequest, p, certifyExtra{CertifyK: certK})
	if err != nil {
		return nil, "", engineError(err)
	}
	ctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	return s.cachedOutcome(ctx, key, func() (*outcome, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sch, herr := s.scheduleFor(ctx, &req.ScheduleRequest, p)
		if herr != nil {
			return nil, herr
		}
		workers := s.clampWorkers(req.Workers)
		if err := s.sem.Acquire(ctx, int64(workers)); err != nil {
			return nil, err
		}
		defer s.sem.Release(int64(workers))
		flag, stop := cancelFlag(ctx)
		defer stop()
		span := s.sink.StartSpan("serve", "serve.certify")
		defer span.End()
		s.ins.runCertify.Inc()
		v, err := certify.CertifyWith(sch, p.g, p.a, p.sp, certK, certify.Options{
			Workers: workers,
			Full:    req.Full,
			Obs:     s.sink,
			Cancel:  flag,
		})
		if err != nil {
			return nil, err
		}
		env, err := renderEnvelope(certifyResponse{Hash: key, Verdict: v})
		if err != nil {
			return nil, err
		}
		return &outcome{envelope: env}, nil
	})
}

// simulateResponse is the /v1/simulate envelope.
type simulateResponse struct {
	Hash   string      `json:"hash"`
	Result *sim.Result `json:"result"`
}

// handleSimulate computes /v1/simulate: schedule (through the schedule
// cache), then execute the distributed executive under the scenario.
func (s *Server) handleSimulate(ctx context.Context, body []byte, _ string) (*outcome, string, *httpError) {
	var req SimulateRequest
	if err := strictUnmarshal(body, &req); err != nil {
		return nil, "", badRequest("simulate: %v", err)
	}
	p, err := s.problemFor(&req.ScheduleRequest)
	if err != nil {
		return nil, "", badRequest("simulate: %v", err)
	}
	if req.Iterations < 0 {
		return nil, "", badRequest("simulate: negative iterations (%d)", req.Iterations)
	}
	scenario := req.Scenario
	if len(scenario) == 0 {
		scenario = []FailureSpec{} // canonical: absent and [] hash identically
	}
	key, err := canonicalHash("simulate", &req.ScheduleRequest, p, simulateExtra{
		Scenario:    scenario,
		Iterations:  req.Iterations,
		SimDeadline: req.SimDeadline,
		Trace:       req.Trace,
	})
	if err != nil {
		return nil, "", engineError(err)
	}
	ctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	return s.cachedOutcome(ctx, key, func() (*outcome, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sch, herr := s.scheduleFor(ctx, &req.ScheduleRequest, p)
		if herr != nil {
			return nil, herr
		}
		// The simulator is single-threaded: one admission token.
		if err := s.sem.Acquire(ctx, 1); err != nil {
			return nil, err
		}
		defer s.sem.Release(1)
		flag, stop := cancelFlag(ctx)
		defer stop()
		span := s.sink.StartSpan("serve", "serve.simulate")
		defer span.End()
		s.ins.runSimulate.Inc()
		res, err := sim.Simulate(sch, p.g, p.a, p.sp, req.scenario(), sim.Config{
			Iterations: req.Iterations,
			Deadline:   req.SimDeadline,
			Trace:      req.Trace,
			Obs:        s.sink,
			Cancel:     flag,
		})
		if err != nil {
			return nil, err
		}
		env, err := renderEnvelope(simulateResponse{Hash: key, Result: res})
		if err != nil {
			return nil, err
		}
		return &outcome{envelope: env}, nil
	})
}
