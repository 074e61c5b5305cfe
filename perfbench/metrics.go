package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one metric the benchmark prints. moves names the
// end-to-end metric (and workload) a per-layer metric is expected to
// move; it is the layer → end-to-end map the README tabulates.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a user of NICE sees, printed with --trace 0.
// Every workload reports every one of them; an "operation" is one
// search on exhaustive and par-engines, one Table-2 cell on bug-hunt and
// one job (POST until the done event) on service, and a "pass" is one
// round over the workload's fixed inputs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "pass_s", unit: "s", better: "lower"},
	{name: "states_per_s", unit: "1/s", better: "higher"},
	{name: "verdict_ms_p90", unit: "ms", better: "lower"},
	{name: "verdicts_per_s", unit: "1/s", better: "higher"},
	{name: "verdicts_ok", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the single-layer metrics, printed with --trace 1. The
// core/openflow/controller/hosts/cow/props/sym.discover rows come from
// the traced mirror DFS over the workload's inputs; sym.solver_*,
// core.cache_* from the telemetry registry of the workload's traced
// pass; search.* and concolic.* only from par-engines and service.*
// only from service (0 elsewhere: the layer is not exercised). The
// service phases are shares of the summed job time rather than
// milliseconds, so that no time metric reads a constant 0; their p50s
// in milliseconds are printed beside the catalogue.
var perLayer = []metricDef{
	{"core.fingerprint_ns", "ns", "lower", "pass_s/states_per_s on exhaustive, pass_s on bug-hunt; flat on service"},
	{"core.fingerprint_share", "ratio", "lower", "pass_s/states_per_s on exhaustive, pass_s on bug-hunt"},
	{"core.enabled_ns", "ns", "lower", "pass_s on exhaustive"},
	{"core.enabled_width", "count", "lower", "pass_s on exhaustive"},
	{"core.revisit_ratio", "ratio", "lower", "states_per_s on exhaustive"},
	{"core.unique_states", "count", "lower", "states_per_s (exact; changes only with the state graph)"},
	{"core.transitions", "count", "lower", "states_per_s (exact; changes only with the state graph)"},
	{"openflow.apply_ns", "ns", "lower", "pass_s on exhaustive and bug-hunt"},
	{"controller.apply_ns", "ns", "lower", "pass_s on exhaustive and bug-hunt"},
	{"hosts.apply_ns", "ns", "lower", "pass_s on exhaustive and bug-hunt"},
	{"cow.clone_ns", "ns", "lower", "pass_s and peak_rss_mb on exhaustive"},
	{"cow.copies_per_transition", "ratio", "lower", "pass_s and peak_rss_mb on exhaustive"},
	{"cow.warm_fork_rate", "ratio", "higher", "pass_s on exhaustive"},
	{"props.check_ns", "ns", "lower", "pass_s on bug-hunt and on exhaustive (loadbalancer-bench)"},
	{"props.check_share", "ratio", "lower", "pass_s on bug-hunt and on exhaustive (loadbalancer-bench)"},
	{"sym.discover_ms", "ms", "lower", "pass_s on bug-hunt and par-engines; flat on exhaustive"},
	{"sym.discover_calls", "count", "lower", "pass_s on bug-hunt and par-engines; flat on exhaustive"},
	{"sym.solver_calls", "count", "lower", "pass_s on bug-hunt and par-engines"},
	{"sym.memo_hit_rate", "ratio", "higher", "pass_s on bug-hunt and par-engines"},
	{"core.cache_hit_rate", "ratio", "higher", "verdict_ms_p90 on service (warm memo), pass_s on bug-hunt (cold)"},
	{"core.cache_evictions", "count", "lower", "verdict_ms_p90 on service"},
	{"search.steals", "count", "lower", "pass_s on par-engines; flat on exhaustive"},
	{"search.frontier_peak", "count", "lower", "pass_s on par-engines; flat on exhaustive"},
	{"search.shard_balance", "ratio", "lower", "pass_s on par-engines; flat on exhaustive"},
	{"search.state_drift", "ratio", "lower", "states_per_s on par-engines (fence for cache-history determinism)"},
	{"concolic.classes", "count", "higher", "pass_s on par-engines"},
	{"concolic.feedback_rounds", "count", "lower", "pass_s on par-engines"},
	{"concolic.classes_per_s", "1/s", "higher", "pass_s on par-engines"},
	{"service.submit_share", "ratio", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"service.queue_wait_share", "ratio", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"service.run_share", "ratio", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"service.deliver_share", "ratio", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"service.artifact_bytes_per_job", "bytes", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"service.artifacts_per_job", "count", "lower", "verdict_ms_p90 and verdicts_per_s on service"},
	{"runtime.allocs_per_state", "count", "lower", "states_per_s and peak_rss_mb on exhaustive"},
	{"runtime.gc_cycles", "count", "lower", "states_per_s and peak_rss_mb on exhaustive"},
	{"trace.overhead", "ratio", "lower", "none: traced pass_s over untraced pass_s, minus 1"},
	{"trace.loop_share", "ratio", "lower", "none: the mirror DFS's own loop, outside every layer call"},
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the p-quantile of xs the way Python's
// statistics.quantiles does by default (the "exclusive" method),
// clamped to the sample range.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p*float64(n+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(n-1):
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
