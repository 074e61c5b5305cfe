package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/nice-go/nice/internal/concolic"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// input is one search with a known answer.
type input struct {
	name  string
	build func() *core.Config
	// expected is the one property the search must violate; "" means
	// the search must finish clean.
	expected string
}

// verdict checks a finished search: it was not cut short by a budget
// (a first-violation stop counts as finished) and the set of violated
// properties is exactly the expected one.
func (in input) verdict(violations []string, complete bool) error {
	if !complete {
		return fmt.Errorf("%w: search cut short", errVerdict)
	}
	var want []string
	if in.expected != "" {
		want = []string{in.expected}
	}
	if got := propertiesOf(violations); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("%w: violated %v, want %v", errVerdict, got, want)
	}
	return nil
}

// propertiesOf reduces "property|error" keys to the sorted set of
// property names.
func propertiesOf(keys []string) []string {
	set := map[string]bool{}
	for _, k := range keys {
		set[strings.SplitN(k, "|", 2)[0]] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

func scaled(name string, scale int) input {
	return input{
		name: fmt.Sprintf("%s/%d", name, scale),
		build: func() *core.Config {
			cfg := scenarios.MustLookup(name).Config(scale)
			cfg.StopAtFirstViolation = false
			return cfg
		},
		expected: scenarios.MustLookup(name).ExpectedProperty,
	}
}

// exhaustiveInputs are Table 1 / Figure 6-style full searches.
func exhaustiveInputs() []input {
	return []input{scaled("pyswitch-bench", 4), scaled("loadbalancer-bench", 5)}
}

// table2Cells are the 44 Table 2 cells (11 bugs × 4 strategies), each
// a first-violation search whose verdict the registry's miss matrix
// fixes: found exactly when the strategy does not miss the bug.
func table2Cells() []input {
	var out []input
	for _, sc := range scenarios.Table2() {
		for _, s := range scenarios.Strategies {
			sc, s := sc, s
			in := input{
				name:  sc.Name + "/" + s.String(),
				build: func() *core.Config { return sc.Apply(sc.Config(0), s) },
			}
			if !sc.Misses[s] {
				in.expected = sc.ExpectedProperty
			}
			out = append(out, in)
		}
	}
	return out
}

func checkerRun(cfg *core.Config) *core.Report { return core.NewChecker(cfg).Run() }

// shuffled returns inputs in rng's order with their configs built.
func shuffled(inputs []input, rng *rand.Rand) ([]input, []*core.Config) {
	ins := make([]input, len(inputs))
	cfgs := make([]*core.Config, len(inputs))
	for i, j := range rng.Perm(len(inputs)) {
		ins[i] = inputs[j]
		cfgs[i] = inputs[j].build()
	}
	return ins, cfgs
}

// dfsPass runs core.Checker (untraced) or the mirror DFS (traced) on
// each input from cold caches.
type dfsPass struct {
	inputs []input
	cfgs   []*core.Config
}

func (p *dfsPass) run(tp *tracePass) []op {
	ops := make([]op, len(p.cfgs))
	for i, cfg := range p.cfgs {
		in := p.inputs[i]
		t := time.Now()
		if tp == nil {
			r := checkerRun(cfg)
			ops[i] = op{input: in.name, dur: time.Since(t), states: r.UniqueStates}
			ops[i].err = in.verdict(countsOf(r).violations, r.Complete)
		} else {
			m := tp.mirror(in, cfg)
			ops[i] = op{input: in.name, dur: time.Since(t), states: m.counts.unique}
			ops[i].err = in.verdict(m.counts.violations, !m.budgetStop)
		}
	}
	return ops
}

func (p *dfsPass) close() {}

func dfsWorkload(name string, inputs func() []input) *workload {
	return &workload{
		name: name,
		setUp: func(rng *rand.Rand) (pass, error) {
			ins, cfgs := shuffled(inputs(), rng)
			return &dfsPass{inputs: ins, cfgs: cfgs}, nil
		},
		mirrorInputs: inputs,
		mirrorTraced: true,
	}
}

// exhaustive: the dfs reference checker to completion on two inputs.
func exhaustiveWorkload() *workload { return dfsWorkload("exhaustive", exhaustiveInputs) }

// bug-hunt: the 44 Table 2 cells, one sweep per pass.
func bugHuntWorkload() *workload { return dfsWorkload("bug-hunt", table2Cells) }

// parInput is one par-engines search: the parallel engine on the
// exhaustive inputs, the concolic loop on pingpong-se.
type parInput struct {
	input
	concolic bool
}

func parInputs() []parInput {
	ex := exhaustiveInputs()
	return []parInput{{input: ex[0]}, {input: ex[1]}, {input: scaled("pingpong-se", 3), concolic: true}}
}

// parRef is the eager dfs answer for one par-engines input: the
// parallel engine must violate the same set, and the concolic loop must
// discover a strict superset of its packet classes.
type parRef struct {
	counts  searchCounts
	classes map[string]bool
}

// engineWorkers splits the CPUs between the concolic loop's search
// and solver workers; the parallel engine gets all of them.
func engineWorkers() (all, searchW, solverW int) {
	all = runtime.GOMAXPROCS(0)
	solverW = max(1, all/2)
	return all, max(1, all-solverW), solverW
}

func parEnginesWorkload() *workload {
	refs := map[string]parRef{}
	w := &workload{name: "par-engines"}
	w.prepare = func() {
		for _, in := range parInputs() {
			cc := core.NewCaches()
			r := core.NewCheckerWith(in.build(), cc).Run()
			refs[in.name] = parRef{counts: countsOf(r), classes: cc.DiscoveredClasses()}
		}
	}
	w.mirrorInputs = func() []input {
		var out []input
		for _, in := range parInputs() {
			out = append(out, in.input)
		}
		return out
	}
	w.setUp = func(rng *rand.Rand) (pass, error) {
		all := parInputs()
		p := &parPass{refs: refs}
		for _, j := range rng.Perm(len(all)) {
			p.inputs = append(p.inputs, all[j])
			p.cfgs = append(p.cfgs, all[j].build())
		}
		return p, nil
	}
	return w
}

type parPass struct {
	refs   map[string]parRef
	inputs []parInput
	cfgs   []*core.Config
}

func (p *parPass) close() {}

func (p *parPass) run(tp *tracePass) []op {
	all, searchW, solverW := engineWorkers()
	ops := make([]op, len(p.cfgs))
	for i, cfg := range p.cfgs {
		in := p.inputs[i]
		ref := p.refs[in.name]
		var reg *telemetry.Registry
		var sp int32
		if tp != nil {
			reg = telemetry.New()
			name := spParallel
			if in.concolic {
				name = spConcolic
			}
			sp = tp.tr.root(name)
		}
		cc := core.NewCaches()
		eo := core.EngineOptions{Caches: cc, Telemetry: reg}
		t := time.Now()
		var r *core.Report
		if in.concolic {
			eo.Workers, eo.SymWorkers = searchW, solverW
			r = concolic.Loop().Search(context.Background(), cfg, eo)
		} else {
			eo.Workers = all
			r = search.Parallel().Search(context.Background(), cfg, eo)
		}
		ops[i] = op{input: in.name, dur: time.Since(t), states: r.UniqueStates}
		if tp != nil {
			tp.tr.close(sp)
		}

		got := countsOf(r)
		err := in.verdict(got.violations, r.Complete)
		if err == nil && fmt.Sprint(got.violations) != fmt.Sprint(ref.counts.violations) {
			err = fmt.Errorf("%w: %d violations, dfs found %d", errVerdict, len(got.violations), len(ref.counts.violations))
		}
		if err == nil && in.concolic {
			classes := cc.DiscoveredClasses()
			for c := range ref.classes {
				if !classes[c] {
					err = fmt.Errorf("%w: class %s found by dfs, missed by the concolic loop", errVerdict, c)
					break
				}
			}
			if err == nil && len(classes) <= len(ref.classes) {
				err = fmt.Errorf("%w: concolic loop found %d classes, dfs %d (want strictly more)",
					errVerdict, len(classes), len(ref.classes))
			}
		}
		ops[i].err = err

		if tp != nil {
			snap := reg.Snapshot()
			for k, v := range snap.Counters {
				tp.reg.Counter(k).Add(v)
			}
			if in.concolic {
				tp.layers["concolic.classes"] = float64(r.PacketClasses)
				tp.layers["concolic.feedback_rounds"] = float64(r.FeedbackRounds)
				tp.layers["concolic.classes_per_s"] = float64(r.PacketClasses) / ops[i].dur.Seconds()
			} else {
				tp.layers["search.steals"] += float64(snap.Counter("parallel.steals"))
				tp.layers["search.frontier_peak"] = math.Max(tp.layers["search.frontier_peak"],
					float64(snap.Gauge("parallel.frontier_peak")))
				tp.layers["search.shard_balance"] = math.Max(tp.layers["search.shard_balance"],
					ratio(float64(snap.Gauge("parallel.seen_shard_max")), float64(snap.Gauge("parallel.seen_shard_mean"))))
				tp.layers["search.state_drift"] = math.Max(tp.layers["search.state_drift"],
					math.Abs(float64(r.UniqueStates-ref.counts.unique))/float64(ref.counts.unique))
			}
		}
	}
	return ops
}

// tracePass collects one traced pass: its spans, a registry for the
// telemetry counters the layers already keep, the mirror searches it
// ran, and workload-specific layer values.
type tracePass struct {
	tr      *tracer
	reg     *telemetry.Registry
	mirrors []*mirror
	layers  map[string]float64
}

func newTracePass() *tracePass {
	return &tracePass{tr: newTracer(), reg: telemetry.New(), layers: map[string]float64{}}
}

func (tp *tracePass) mirror(in input, cfg *core.Config) *mirror {
	m := runMirror(cfg, tp.reg, tp.tr)
	m.name = in.name
	tp.mirrors = append(tp.mirrors, m)
	return m
}

// values are the pass's per-layer metrics: workload layers, the
// registry's cache and solver counters, and the mirror's layer split.
func (tp *tracePass) values() map[string]float64 {
	v := map[string]float64{}
	for k, x := range tp.layers {
		v[k] = x
	}
	s := tp.reg.Snapshot()
	hits := float64(s.Counter("cache.packets_hits") + s.Counter("cache.stats_hits"))
	misses := float64(s.Counter("cache.packets_misses") + s.Counter("cache.stats_misses"))
	v["core.cache_hit_rate"] = ratio(hits, hits+misses)
	v["core.cache_evictions"] = float64(s.Counter("cache.evictions"))
	v["sym.solver_calls"] = float64(s.Counter("sym.solver_calls"))
	mh, mm := float64(s.Counter("sym.memo_hits")), float64(s.Counter("sym.memo_misses"))
	v["sym.memo_hit_rate"] = ratio(mh, mh+mm)
	if len(tp.mirrors) > 0 {
		for k, x := range tp.mirrorValues() {
			v[k] = x
		}
	}
	return v
}

// mirrorValues derives the core/openflow/controller/hosts/cow/props and
// sym.discover metrics from the mirror's spans and cow counters.
func (tp *tracePass) mirrorValues() map[string]float64 {
	lt := tp.tr.table()
	s := tp.reg.Snapshot()
	var c searchCounts
	var width, expansions int64
	for _, m := range tp.mirrors {
		c.unique += m.counts.unique
		c.transitions += m.counts.transitions
		c.revisits += m.counts.revisits
		width += m.widthSum
		expansions += m.expansions
	}
	return map[string]float64{
		"core.fingerprint_ns":       lt.meanNS(spFingerprint),
		"core.fingerprint_share":    lt.share(spFingerprint),
		"core.enabled_ns":           lt.meanNS(spEnabled),
		"core.enabled_width":        ratio(float64(width), float64(expansions)),
		"core.revisit_ratio":        ratio(float64(c.revisits), float64(c.transitions)),
		"core.unique_states":        float64(c.unique),
		"core.transitions":          float64(c.transitions),
		"openflow.apply_ns":         lt.meanNS(spApplyOpenflow),
		"controller.apply_ns":       lt.meanNS(spApplyController),
		"hosts.apply_ns":            lt.meanNS(spApplyHosts),
		"cow.clone_ns":              lt.meanNS(spClone),
		"cow.copies_per_transition": ratio(float64(s.Counter("cow.ensure_owned_copies")), float64(c.transitions)),
		"cow.warm_fork_rate":        ratio(float64(s.Counter("cow.forks_warm")), float64(s.Counter("cow.forks"))),
		"props.check_ns":            lt.meanNS(spCheckEvents, spCheckQuiescence),
		"props.check_share":         lt.share(spCheckEvents, spCheckQuiescence),
		"sym.discover_ms":           float64(lt.self[spDiscover]) / 1e6,
		"sym.discover_calls":        float64(lt.calls[spDiscover]),
		"trace.loop_share":          lt.share(spSearch, spExpand),
	}
}
