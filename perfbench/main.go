// Command perfbench is the end-to-end benchmark of ftsched. It runs one
// named workload for a seed through the program's public entry points —
// ftschedd's handler in process for the serve workloads, campaign.Run over
// a compiled sim.Model for the campaign workload — checks every output, and
// prints its metrics. The last line of standard output is one JSON object:
// the end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	bash perfbench/run.sh --workload plan-bus --seed 7 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(seed int64, seconds float64, out *report) error
	trace func(seed int64, out *report) error
}{
	"serve-mix": {
		run:   func(seed int64, s float64, out *report) error { return runServe(serveMix, seed, s, out) },
		trace: func(seed int64, out *report) error { return traceServe(serveMix, "serve-mix", seed, out) },
	},
	"plan-bus": {
		run:   func(seed int64, s float64, out *report) error { return runServe(planBus, seed, s, out) },
		trace: func(seed int64, out *report) error { return traceServe(planBus, "plan-bus", seed, out) },
	},
	"campaign": {
		run:   runCampaign,
		trace: traceCampaign,
	},
}

var (
	serveMix = serveWorkload{clients: 2, tailPerPass: true, inputs: serveMixInputs}
	planBus  = serveWorkload{clients: 2, inputs: planBusInputs}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's verdict and metrics. Notes and per-metric bases
// go to the human-readable lines; the JSON line carries values and units.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	lines     []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric, with the base or sample count it was taken over.
func (r *report) set(name string, v float64, unit, base string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("%-30s %14.6g %-6s %s", name, v, unit, base))
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, "# "+fmt.Sprintf(format, args...))
}

// endToEnd records the six end-to-end metrics. lat holds every operation's
// latency in ms, setups the set-up samples in seconds, each the mean of
// setupEach set-ups. The tail is taken in each window of tails and the
// median over windows is reported.
func (r *report) endToEnd(attempted, failed int64, throughput float64, lat []float64, tails [][]float64, setups []float64, setupEach int) error {
	if attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	r.attempted, r.failed = attempted, failed
	var (
		tv          []float64
		pcts        = map[float64]bool{}
		minN, minBy = int(^uint(0) >> 1), int(^uint(0) >> 1)
	)
	for _, w := range tails {
		n := len(w)
		v, pct, beyond, ok := tail(w)
		if !ok {
			return fmt.Errorf("%d latency samples: too few for a tail with %d beyond", n, tailBeyond)
		}
		tv = append(tv, v)
		pcts[pct] = true
		minN, minBy = min(minN, n), min(minBy, beyond)
	}
	if len(tv) == 0 {
		return fmt.Errorf("no complete pass to take the tail latency in")
	}
	var pctList []string
	for p := range pcts {
		pctList = append(pctList, fmt.Sprintf("p%g", p))
	}
	sort.Strings(pctList)
	tailBase := fmt.Sprintf("%s of %d samples, %d beyond", strings.Join(pctList, "/"), minN, minBy)
	if len(tails) > 1 {
		tailBase = fmt.Sprintf("median over %d complete passes of each pass's %s (>= %d samples, >= %d beyond)",
			len(tails), strings.Join(pctList, "/"), minN, minBy)
	}
	n := len(lat)
	p50 := median(lat)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("throughput_per_s", throughput, "1/s", fmt.Sprintf("%d operations", attempted))
	r.set("latency_p50_ms", p50, "ms", fmt.Sprintf("median of %d samples", n))
	r.set("latency_tail_ms", median(tv), "ms", tailBase)
	r.set("ok_share", float64(attempted-failed)/float64(attempted), "ratio", fmt.Sprintf("%d of %d operations", attempted-failed, attempted))
	r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d samples, each the mean of %d set-ups", len(setups), setupEach))
	r.set("peak_rss_mb", rss, "MB", "process VmHWM")
	return nil
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print() error {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign, plan-bus or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed window of an untraced run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	out := newReport()
	out.notef("workload %s, seed %d, trace %d", *name, *seed, *trace)
	var err error
	if *trace == 1 {
		err = w.trace(*seed, out)
	} else {
		err = w.run(*seed, *seconds, out)
	}
	if err == nil {
		err = out.print()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
