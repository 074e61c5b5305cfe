// Command perfbench is NICE's same-machine benchmark. It runs one
// workload for a fixed time, checks every verdict against the known
// answer, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics and layer tables of a traced run (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"pass_s": {"value": 3.51, "unit": "s"}, ...}}
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// op is one timed operation and its verdict check.
type op struct {
	input  string
	dur    time.Duration
	states int64
	err    error // nil when the verdict equals the known answer
}

// pass is one round over a workload's inputs, built by setUp.
type pass interface {
	// run executes the pass; with tp non-nil it runs the traced
	// variant and records spans and layer values into tp.
	run(tp *tracePass) []op
	// close releases what setUp acquired (untimed).
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// prepare computes reference answers once per process, before the
	// measured window (nil when the registry's known answers suffice).
	prepare func()
	// setUp builds one pass with its inputs in rng's order: registry
	// lookups, Config builds, server boot. It is what setup_s times.
	setUp func(rng *rand.Rand) (pass, error)
	// mirrorInputs are the searches the traced layer split replays
	// through the mirror DFS; mirrorTraced marks workloads whose
	// traced pass already is that mirror.
	mirrorInputs func() []input
	mirrorTraced bool
}

var workloads = map[string]*workload{
	"exhaustive":  exhaustiveWorkload(),
	"par-engines": parEnginesWorkload(),
	"bug-hunt":    bugHuntWorkload(),
	"service":     serviceWorkload(),
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	entry := time.Now()
	name := flag.String("workload", "", "workload: exhaustive, par-engines, bug-hunt or service")
	seed := flag.Int64("seed", 1, "seed for the order of each pass's inputs")
	secs := flag.Int("seconds", 20, "measured time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer split and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	res, err := run(w, entry, rand.New(rand.NewSource(*seed)), time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload: passes until the measured window is
// spent, each with its own timed set-up. A traced run alternates
// untraced and traced passes so that the tracing overhead is measured
// on the same process.
func run(w *workload, entry time.Time, rng *rand.Rand, window time.Duration, traced bool) (*result, error) {
	// Reference answers are verification work, not set-up: their time
	// is taken out of the first pass's set-up.
	refStart := time.Now()
	if w.prepare != nil {
		w.prepare()
	}
	refs := map[string]searchCounts{}
	var inputs []input
	if traced {
		inputs = w.mirrorInputs()
		for _, in := range inputs {
			refs[in.name] = countsOf(checkerRun(in.build()))
		}
	}
	setupStart := entry.Add(time.Since(refStart))

	// Per untraced pass: wall time, states/s, p90 operation time,
	// operations/s and peak RSS; every end-to-end metric is the median
	// over the run's passes.
	var (
		setups, walls, tracedWalls []time.Duration
		rates, p90s, opRates, rss  []float64
		ops                        []op
		tps                        []*tracePass
		allocs, gcs                []float64
		start                      = time.Now()
	)
	for len(walls) == 0 || time.Since(start) < window {
		for _, tracedPass := range []bool{false, true} {
			if tracedPass && !traced {
				continue
			}
			p, err := w.setUp(rng)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, time.Since(setupStart))
			var tp *tracePass
			if tracedPass {
				tp = newTracePass()
			}
			var ms0 runtime.MemStats
			if traced && !tracedPass {
				runtime.ReadMemStats(&ms0)
			}
			resetPeakRSS()
			t := time.Now()
			passOps := p.run(tp)
			wall := time.Since(t)
			peak := peakRSSMB()
			p.close()

			var states int64
			durs := make([]float64, len(passOps))
			for i, o := range passOps {
				states += o.states
				durs[i] = float64(o.dur) / 1e6
			}
			ops = append(ops, passOps...)
			if tracedPass {
				tracedWalls = append(tracedWalls, wall)
				tps = append(tps, tp)
			} else {
				walls = append(walls, wall)
				rates = append(rates, float64(states)/wall.Seconds())
				p90s = append(p90s, quantile(durs, 0.9))
				opRates = append(opRates, float64(len(passOps))/wall.Seconds())
				rss = append(rss, peak)
				fmt.Fprintf(os.Stderr, "pass %d: %.4f s, %d states, p90 %.3f ms, peak %.1f MB, set-up %.6f s\n",
					len(walls), wall.Seconds(), states, p90s[len(p90s)-1], peak, setups[len(setups)-1].Seconds())
				if traced {
					var ms1 runtime.MemStats
					runtime.ReadMemStats(&ms1)
					allocs = append(allocs, ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(states)))
					gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
				}
			}
			runtime.GC()
			setupStart = time.Now()
		}
	}

	res := &result{Attempted: len(ops), Metrics: map[string]metric{}}
	for _, o := range ops {
		if o.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", o.input, o.err)
		}
	}
	if !traced {
		vals := map[string]float64{
			"setup_s":        median(seconds(setups)),
			"pass_s":         median(seconds(walls)),
			"states_per_s":   median(rates),
			"verdict_ms_p90": median(p90s),
			"verdicts_per_s": median(opRates),
			"verdicts_ok":    float64(len(ops)-res.Failed) / float64(len(ops)),
			"peak_rss_mb":    median(rss),
		}
		fmt.Printf("%s: %d passes, %d operations, %d failed\n", w.name, len(walls), len(ops), res.Failed)
		fillMetrics(res, endToEnd, vals)
		res.Correct = res.Failed == 0
		return res, nil
	}

	vals := mergeTraced(tps)
	split := tps[len(tps)-1]
	if !w.mirrorTraced {
		split = newTracePass()
		for _, in := range inputs {
			split.mirror(in, in.build())
		}
		for k, v := range split.mirrorValues() {
			vals[k] = v
		}
	}
	// Parity: the mirror must reproduce core.Checker exactly.
	parityFailed := 0
	for _, m := range split.mirrors {
		if !m.counts.equal(refs[m.name]) {
			parityFailed++
			fmt.Fprintf(os.Stderr, "MIRROR MISMATCH %s: mirror %+v, checker %+v\n", m.name, m.counts, refs[m.name])
		}
	}
	vals["runtime.allocs_per_state"] = median(allocs)
	vals["runtime.gc_cycles"] = median(gcs)
	vals["trace.overhead"] = median(seconds(tracedWalls))/median(seconds(walls)) - 1

	fmt.Printf("%s traced: %d untraced + %d traced passes; untraced pass_s %.4f, traced pass_s %.4f, overhead %+.1f%%\n",
		w.name, len(walls), len(tracedWalls), median(seconds(walls)), median(seconds(tracedWalls)),
		100*vals["trace.overhead"])
	tps[len(tps)-1].tr.table().print(os.Stdout, w.name+" layer table, last traced pass")
	if !w.mirrorTraced {
		split.tr.table().print(os.Stdout, w.name+" layer table, mirror DFS over the same inputs")
	}
	fmt.Printf("\nmirror parity: %d of %d searches match core.Checker\n", len(split.mirrors)-parityFailed, len(split.mirrors))
	printLayerValues(vals)
	fillMetrics(res, perLayer, vals)
	res.Correct = res.Failed == 0 && parityFailed == 0
	return res, nil
}

// fillMetrics copies the catalogue's metrics into the result; a metric
// a workload does not exercise reads 0.
func fillMetrics(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		if v != v { // NaN: nothing to measure
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

// printLayerValues prints the catalogue's per-layer metrics with the
// end-to-end metric each should move, then any other value the traced
// run measured.
func printLayerValues(vals map[string]float64) {
	fmt.Println("\nper-layer metrics:")
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
		fmt.Printf("  %-32s %16.4f %-6s -> %s\n", d.name, vals[d.name], d.unit, d.moves)
	}
	var extra []string
	for k := range vals {
		if !listed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-32s %16.4f\n", k, vals[k])
	}
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking, so that
// each pass reports its own peak. Where the kernel refuses, the peak
// stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// mergeTraced takes, per layer value, the median over traced passes.
func mergeTraced(tps []*tracePass) map[string]float64 {
	series := map[string][]float64{}
	for _, tp := range tps {
		for k, v := range tp.values() {
			series[k] = append(series[k], v)
		}
	}
	out := make(map[string]float64, len(series))
	for k, xs := range series {
		out[k] = median(xs)
	}
	return out
}

var errVerdict = errors.New("verdict differs from the known answer")
