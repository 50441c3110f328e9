package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"ftsched/internal/campaign"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/sim"
)

// setupTimes is how long each step of a campaign model's set-up took.
type setupTimes struct {
	schedule, compile, total time.Duration
}

// campaignModel draws the problem of campaign c and runs the program's
// set-up for it: schedule the problem, compile the schedule, and build a
// runner. Only the set-up is timed.
func campaignModel(seed int64, c int) (*sim.Model, setupTimes, error) {
	p, err := campaignInput(seed, c)
	if err != nil {
		return nil, setupTimes{}, err
	}
	t0 := time.Now()
	res, err := core.Schedule(p.heur, p.inst.Graph, p.inst.Arch, p.inst.Spec, p.k, core.Options{})
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("schedule campaign model: %w", err)
	}
	t1 := time.Now()
	m, err := sim.Compile(res.Schedule, p.inst.Graph, p.inst.Arch, p.inst.Spec)
	if err != nil {
		return nil, setupTimes{}, fmt.Errorf("compile campaign model: %w", err)
	}
	t2 := time.Now()
	m.NewRunner()
	t3 := time.Now()
	return m, setupTimes{schedule: t1.Sub(t0), compile: t2.Sub(t1), total: t3.Sub(t0)}, nil
}

// campaignConfig is the run's c-th campaign.
func campaignConfig(seed int64, c, workers int, sink *obs.Sink) campaign.Config {
	return campaign.Config{
		N:          campScenarios,
		Seed:       campaignSeed(seed, c),
		Workers:    workers,
		Iterations: campIterations,
		MaxFaults:  campMaxFaults,
		K:          1,
		Mix:        campaignMix,
		Obs:        sink,
	}
}

// checkCampaign checks one report: every scenario ran and the within-K
// completion cross-check (Goemans/Lynch/Saias) holds.
func checkCampaign(rep *campaign.Report) error {
	if rep.Scenarios != campScenarios {
		return fmt.Errorf("report has %d scenarios, want %d", rep.Scenarios, campScenarios)
	}
	if !rep.CrossCheck.Consistent {
		return fmt.Errorf("within-K cross-check inconsistent: %d of %d within-K scenarios incomplete",
			rep.CrossCheck.WithinKIncomplete, rep.CrossCheck.WithinK)
	}
	return nil
}

// runCampaign is the untraced run of the campaign workload: fixed-size
// campaigns, each with its own seed and its own freshly drawn and compiled
// model, until the campaigns add up to the timed window. Drawing and set-up
// happen outside the timed window. The first campaign also runs on one
// worker, before timing, and both runs must produce the same report bytes.
func runCampaign(seed int64, seconds float64, out *report) error {
	var (
		lat       []float64
		setups    []float64
		wall      time.Duration
		attempted int64
		failed    int64
		wrong     int
		firstErr  error
		serial    *campaign.Report
	)
	fail := func(err error) {
		wrong++
		if firstErr == nil {
			firstErr = err
		}
	}
	window := time.Duration(seconds * float64(time.Second))
	c := 0
	for ; wall < window; c++ {
		model, st, err := campaignModel(seed, c)
		if err != nil {
			return err
		}
		setups = append(setups, st.total.Seconds())
		if c == 0 {
			// The reference the timed, parallel run must match; also the
			// warm-up before timing.
			if serial, err = campaign.Run(model, campaignConfig(seed, 0, 1, nil)); err != nil {
				fail(fmt.Errorf("serial campaign 0: %w", err))
			}
		}
		t := time.Now()
		rep, err := campaign.Run(model, campaignConfig(seed, c, campWorkers, nil))
		d := time.Since(t)
		wall += d
		lat = append(lat, ms(d))
		attempted += campScenarios
		if err == nil {
			err = checkCampaign(rep)
		}
		if err == nil && c == 0 && serial != nil {
			if err = sameReport(serial, rep); err != nil {
				err = fmt.Errorf("on 1 and on %d workers: %w", campWorkers, err)
			}
		}
		if err != nil {
			failed += campScenarios
			fail(fmt.Errorf("campaign %d: %w", c, err))
		}
	}
	out.notef("campaigns %d of %d scenarios, one fresh model each, %d workers", c, campScenarios, campWorkers)
	if firstErr != nil {
		out.notef("failed checks %d, first: %v", wrong, firstErr)
	}
	out.correct = wrong == 0
	return out.endToEnd(attempted, failed, float64(attempted)/wall.Seconds(), lat, [][]float64{lat}, setups, 1)
}

// sameReport compares two campaign reports byte for byte.
func sameReport(a, b *campaign.Report) error {
	x, err := json.Marshal(a)
	if err != nil {
		return err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return fmt.Errorf("reports differ")
	}
	return nil
}
