package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"ftsched/internal/certify"
	"ftsched/internal/core"
	"ftsched/internal/sched"
	"ftsched/internal/serve"
	"ftsched/internal/workload"
)

// problem is one generated scheduling problem and the engine options every
// request for it carries.
type problem struct {
	inst  *workload.Instance
	heur  core.Heuristic
	k     int
	seeds int
}

// request is one HTTP request of a serve workload. Its id indexes the
// per-pass result slice.
type request struct {
	id      int
	problem int
	kind    string // schedule, certify or simulate
	body    []byte
}

// serveInputs is a serve workload's generated traffic: the problems, and the
// units clients take in order. A client sends a unit's requests back to
// back, each after the previous response (closed loop).
type serveInputs struct {
	problems []problem
	units    [][]request
	requests int
	setAside int // draws left out because the program cannot answer them
}

// Workload shapes. They are fixed here, not flags: the benchmark's numbers
// are comparable across commits only at one shape. Every pass (and every
// campaign) draws fresh problems, so that a run's tail is set by many
// distinct inputs rather than by the few heaviest problems of a small pool.
const (
	mixOps, mixProcs   = 40, 4   // serve-mix: full-mesh FT2 K=1
	mixProblems        = 64      // serve-mix: distinct problems per pass
	mixRepeatEvery     = 4       // serve-mix: one repeated triple per 4 originals
	mixRepeatGap       = 8       // serve-mix: a repeat trails its original by at least 8 units
	busOps, busProcs   = 120, 8  // plan-bus: bus FT1, K alternating 1 and 2
	busProblems        = 32      // plan-bus: distinct problems per pass
	busSeeds           = 4       // plan-bus: randomized tie-break runs per schedule
	campOps, campProcs = 60, 4   // campaign: bus FT1 K=1 schedules, one per campaign
	campScenarios      = 512     // campaign: scenarios per campaign (two 256-scenario blocks)
	campWorkers        = 2       // campaign: shard workers
	campIterations     = 3       // campaign: reactive-loop iterations per scenario
	campMaxFaults      = 2       // campaign: failures per scenario, at most
	ccr                = 0.5     // communication-to-computation ratio of every problem
	maxDrawsPerProblem = 20      // give up after this many unschedulable draws per problem
	workloadSaltMix    = 0x6d69  // "mi"
	workloadSaltBus    = 0x6275  // "bu"
	workloadSaltCamp   = 0x6361  // "ca"
	passSeedStride     = 1000003 // pass or campaign k of a run draws from seed*stride + k
)

// passSeed is the generator seed of pass (or campaign) k of a run.
func passSeed(seed int64, k int, salt int64) int64 { return (seed*passSeedStride + int64(k)) ^ salt }

// campaignMix is the scenario class mix of the README's campaign example.
var campaignMix = map[string]float64{"failstop": 0.5, "intermittent": 0.2, "burst": 0.2, "linkfail": 0.1}

// drawProblems draws n schedulable problems from r. A draw counts only if
// one deterministic run of its heuristic schedules it. With vetCertify, a
// draw also counts only if the program can answer /v1/certify for it: the
// draws it cannot answer (a certified verdict with an infinite bound, which
// the server fails to encode, ROADMAP item 1) are set aside and counted, so
// that no operation of the workload fails and the defect stays visible.
func drawProblems(r *rand.Rand, n, ops, procs int, bus bool, heur core.Heuristic, kOf func(i int) int, seeds int, vetCertify bool) (out []problem, setAside int, err error) {
	out = make([]problem, 0, n)
	for draws := 0; len(out) < n; draws++ {
		if draws > maxDrawsPerProblem*n {
			return nil, 0, fmt.Errorf("drew %d schedulable problems of %d in %d draws", len(out), n, draws)
		}
		inst, err := workload.RandomInstance(r, ops, procs, bus, ccr)
		if err != nil {
			continue
		}
		k := kOf(len(out))
		res, err := core.Schedule(heur, inst.Graph, inst.Arch, inst.Spec, k, core.Options{})
		if err != nil {
			continue
		}
		if vetCertify {
			ok, err := certifyEncodes(res.Schedule, inst, k)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				setAside++
				continue
			}
		}
		out = append(out, problem{inst: inst, heur: heur, k: k, seeds: seeds})
	}
	return out, setAside, nil
}

// certifyEncodes reports whether the K-fault verdict on s encodes as JSON,
// as the server's /v1/certify response must.
func certifyEncodes(s *sched.Schedule, inst *workload.Instance, k int) (bool, error) {
	v, err := certify.CertifyWith(s, inst.Graph, inst.Arch, inst.Spec, k, certify.Options{Workers: 1})
	if err != nil {
		return false, fmt.Errorf("certify a drawn problem: %w", err)
	}
	_, err = json.Marshal(v)
	return err == nil, nil
}

// scheduleRequest renders the problem half every request of p shares.
func (p *problem) scheduleRequest() (serve.ScheduleRequest, error) {
	g, err := p.inst.Graph.MarshalJSON()
	if err != nil {
		return serve.ScheduleRequest{}, err
	}
	a, err := p.inst.Arch.MarshalJSON()
	if err != nil {
		return serve.ScheduleRequest{}, err
	}
	sp, err := p.inst.Spec.MarshalJSON()
	if err != nil {
		return serve.ScheduleRequest{}, err
	}
	return serve.ScheduleRequest{
		Graph: g, Arch: a, Spec: sp,
		Heuristic: p.heur.String(), K: p.k, Seeds: p.seeds,
		Workers: 1,
	}, nil
}

// bodies renders the request bodies of p by kind.
func (p *problem) bodies(kinds []string) (map[string][]byte, error) {
	base, err := p.scheduleRequest()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(kinds))
	for _, kind := range kinds {
		var v any
		switch kind {
		case "schedule":
			v = base
		case "certify":
			v = serve.CertifyRequest{ScheduleRequest: base}
		case "simulate":
			// The first processor fails at the start of the first iteration.
			proc := p.inst.Arch.ProcessorNames()[0]
			v = serve.SimulateRequest{ScheduleRequest: base, Scenario: []serve.FailureSpec{{Proc: proc}}}
		default:
			return nil, fmt.Errorf("unknown request kind %q", kind)
		}
		if out[kind], err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildUnits turns an order of problem indices into units of requests, one
// request per kind, numbering requests in order.
func buildUnits(problems []problem, order []int, kinds []string) (*serveInputs, error) {
	bodies := make([]map[string][]byte, len(problems))
	for i := range problems {
		b, err := problems[i].bodies(kinds)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	in := &serveInputs{problems: problems}
	for _, pi := range order {
		unit := make([]request, len(kinds))
		for j, kind := range kinds {
			unit[j] = request{id: in.requests, problem: pi, kind: kind, body: bodies[pi][kind]}
			in.requests++
		}
		in.units = append(in.units, unit)
	}
	return in, nil
}

// serveMixInputs generates pass k of the serve-mix traffic: each problem
// as schedule, certify, simulate, and a fixed share of the triples sent a
// second time at least mixRepeatGap units later, so the response cache sees
// hits beside misses.
func serveMixInputs(seed int64, k int) (*serveInputs, error) {
	r := rand.New(rand.NewSource(passSeed(seed, k, workloadSaltMix)))
	problems, setAside, err := drawProblems(r, mixProblems, mixOps, mixProcs, false, core.FT2,
		func(int) int { return 1 }, 0, true)
	if err != nil {
		return nil, fmt.Errorf("serve-mix inputs: %w", err)
	}
	var order []int
	for i := range problems {
		order = append(order, i)
		if i >= 2*mixRepeatGap && i%mixRepeatEvery == 0 {
			order = append(order, i-2*mixRepeatGap+r.Intn(mixRepeatGap))
		}
	}
	in, err := buildUnits(problems, order, []string{"schedule", "certify", "simulate"})
	if in != nil {
		in.setAside = setAside
	}
	return in, err
}

// planBusInputs generates pass k of the plan-bus traffic: every problem
// once, as a tuned schedule request followed by a certify request with the
// same body. K alternates between 1 and 2 so that every pass holds the same
// share of each.
func planBusInputs(seed int64, k int) (*serveInputs, error) {
	r := rand.New(rand.NewSource(passSeed(seed, k, workloadSaltBus)))
	problems, _, err := drawProblems(r, busProblems, busOps, busProcs, true, core.FT1,
		func(i int) int { return 1 + i%2 }, busSeeds, false)
	if err != nil {
		return nil, fmt.Errorf("plan-bus inputs: %w", err)
	}
	order := make([]int, len(problems))
	for i := range order {
		order[i] = i
	}
	return buildUnits(problems, order, []string{"schedule", "certify"})
}

// campaignInput generates the problem of campaign c: a schedulable bus FT1
// K=1 problem, compiled into the campaign's model.
func campaignInput(seed int64, c int) (*problem, error) {
	r := rand.New(rand.NewSource(passSeed(seed, c, workloadSaltCamp)))
	problems, _, err := drawProblems(r, 1, campOps, campProcs, true, core.FT1,
		func(int) int { return 1 }, 0, false)
	if err != nil {
		return nil, fmt.Errorf("campaign inputs: %w", err)
	}
	return &problems[0], nil
}

// campaignSeed is the scenario seed of campaign c of a run.
func campaignSeed(seed int64, c int) int64 { return seed*passSeedStride + int64(c) }
