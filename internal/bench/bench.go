// Package bench is the repeatable performance harness behind the
// BENCH_<n>.json trajectory: it runs the Table 2 scenario suite plus
// scaled pyswitch and load-balancer workloads, measures states/sec,
// transitions, wall time and allocations, and emits machine-readable
// JSON so every PR has a baseline to beat (and CI has one to gate on).
//
// Two workloads are gated (Result.Gate): the scaled pyswitch and
// load-balancer full searches, both measured best-of-N to damp scheduler
// noise. The oracle variants run the same searches with Config.OracleHash
// — the full-reserialization hash the incremental fingerprint replaced —
// so the JSON always records the current speedup ratio.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// The harness resolves its workloads in the scenario registry, like
// every other front end; a new bench workload registers there once.
func pyswitchBench(sends int) *core.Config {
	return scenarios.MustLookup("pyswitch-bench").Config(sends)
}

func loadBalancerBench(sends int) *core.Config {
	return scenarios.MustLookup("loadbalancer-bench").Config(sends)
}

// Schema is the BENCH_<n>.json format version.
const Schema = 1

// Result is one measured workload.
type Result struct {
	Name string `json:"name"`
	// Gate marks workloads the CI perf gate compares against the
	// checked-in baseline.
	Gate         bool    `json:"gate"`
	UniqueStates int64   `json:"unique_states"`
	Transitions  int64   `json:"transitions"`
	Violations   int     `json:"violations"`
	WallMS       float64 `json:"wall_ms"`
	StatesPerSec float64 `json:"states_per_sec"`
	TransPerSec  float64 `json:"transitions_per_sec"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	Complete     bool    `json:"complete"`
}

// Suite is one full harness run.
type Suite struct {
	Schema    int      `json:"schema"`
	PR        int      `json:"pr"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Results   []Result `json:"results"`
	// Telemetry optionally embeds a search telemetry snapshot (from
	// `nice -metrics-out`, attached via nice-bench -metrics) so one JSON
	// artifact carries both the perf numbers and the engine's metric
	// series.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Dpor holds the DPOR reduction comparison results (nice-bench
	// -dpor), so the same JSON artifact records the states-explored
	// savings CI gates on.
	Dpor []DporResult `json:"dpor,omitempty"`
	// Concolic holds the eager-vs-feedback-loop comparison results
	// (nice-bench -concolic): packet-class coverage, violation parity
	// and loop throughput, gated in CI like the DPOR savings.
	Concolic []ConcolicResult `json:"concolic,omitempty"`
}

// Options tunes a harness run.
type Options struct {
	// PR stamps the trajectory index into the output (BENCH_<PR>.json).
	PR int
	// Iters is the best-of-N repeat count for gated workloads (0 = 3).
	Iters int
	// Workers sizes the parallel-engine workload (0 = min(4, NumCPU)).
	Workers int
	// SkipTable2 drops the 44-cell Table 2 sweep (CI smoke runs).
	SkipTable2 bool
}

func (o Options) iters() int {
	if o.Iters <= 0 {
		return 3
	}
	return o.Iters
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// measure runs one search, returning the report plus wall time and
// allocation deltas.
func measure(run func() *core.Report) (r *core.Report, wall time.Duration, allocB, allocN uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r = run()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return r, wall, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

func resultFrom(name string, gate bool, r *core.Report, wall time.Duration, allocB, allocN uint64) Result {
	secs := wall.Seconds()
	res := Result{
		Name:         name,
		Gate:         gate,
		UniqueStates: r.UniqueStates,
		Transitions:  r.Transitions,
		Violations:   len(r.Violations),
		WallMS:       float64(wall.Microseconds()) / 1000,
		AllocBytes:   allocB,
		AllocObjects: allocN,
		Complete:     r.Complete,
	}
	if secs > 0 {
		res.StatesPerSec = float64(r.UniqueStates) / secs
		res.TransPerSec = float64(r.Transitions) / secs
	}
	return res
}

// bestOf repeats a workload and keeps the run with the highest
// states/sec (noise damping: the floor of a best-of-N is the machine's
// real capability, not a scheduler hiccup).
func bestOf(n int, name string, gate bool, run func() *core.Report) Result {
	var best Result
	for i := 0; i < n; i++ {
		r, wall, ab, an := measure(run)
		res := resultFrom(name, gate, r, wall, ab, an)
		if i == 0 || res.StatesPerSec > best.StatesPerSec {
			best = res
		}
	}
	return best
}

// Run executes the harness and returns the suite.
func Run(opts Options) *Suite {
	s := &Suite{
		Schema:    Schema,
		PR:        opts.PR,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	if !opts.SkipTable2 {
		s.Results = append(s.Results, runTable2())
	}

	iters := opts.iters()

	// Scaled pyswitch: MAC learning with symbolic execution, full state
	// space (~10k states at 3 sends). The headline gated workload.
	// Oracle variants run the same best-of-N as their incremental
	// counterparts: a lone noisy oracle run would deflate its states/sec
	// and flatter every recorded speedup ratio.
	s.Results = append(s.Results, bestOf(iters, "pyswitch-scaled/seq", true, func() *core.Report {
		return core.NewChecker(pyswitchBench(3)).Run()
	}))
	s.Results = append(s.Results, bestOf(iters, "pyswitch-scaled/oracle", false, func() *core.Report {
		cfg := pyswitchBench(3)
		cfg.OracleHash = true
		return core.NewChecker(cfg).Run()
	}))
	s.Results = append(s.Results, bestOf(1,
		fmt.Sprintf("pyswitch-scaled/par%d", opts.workers()), false, func() *core.Report {
			return search.Parallel().Search(context.Background(), pyswitchBench(3),
				core.EngineOptions{Workers: opts.workers()})
		}))
	// Observer-overhead probe: the same gated search driven through the
	// engine API with a streaming observer attached. Not gated itself;
	// the recorded states/sec documents what violation streaming and
	// progress snapshots cost relative to pyswitch-scaled/seq.
	s.Results = append(s.Results, bestOf(iters, "pyswitch-scaled/observed", false, func() *core.Report {
		return core.DFS().Search(context.Background(), pyswitchBench(3), core.EngineOptions{
			Observer:      core.ObserverFuncs{},
			ProgressEvery: 100 * time.Millisecond,
		})
	}))

	// Scaled load balancer: wildcard rules, environment reconfiguration,
	// SE-discovered TCP/ARP classes (~13k states at 4 sends).
	s.Results = append(s.Results, bestOf(iters, "loadbalancer-scaled/seq", true, func() *core.Report {
		return core.NewChecker(loadBalancerBench(4)).Run()
	}))
	s.Results = append(s.Results, bestOf(iters, "loadbalancer-scaled/oracle", false, func() *core.Report {
		cfg := loadBalancerBench(4)
		cfg.OracleHash = true
		return core.NewChecker(cfg).Run()
	}))

	// Pure hashing throughput: states hashed per second over identical
	// state corpora, incremental vs the full-reserialization oracle.
	// This isolates the tentpole subsystem from clone/apply/SE costs.
	s.Results = append(s.Results, bestHashProbe(false, iters))
	s.Results = append(s.Results, bestHashProbe(true, iters))

	return s
}

// bestHashProbe is the best-of-N wrapper over HashProbe (both hash
// modes get the same treatment, keeping the speedup ratio honest).
func bestHashProbe(oracle bool, iters int) Result {
	best := HashProbe(oracle, 4096)
	for i := 1; i < iters; i++ {
		if r := HashProbe(oracle, 4096); r.StatesPerSec > best.StatesPerSec {
			best = r
		}
	}
	return best
}

// HashCorpus produces the representative state population both the
// harness's hash probes and the root-level BenchmarkHash measure over:
// mid-search parent states of the scaled pyswitch workload, from which
// Rebuild forks fresh children (clone + one applied transition, which
// dirties exactly the components a real search would dirty).
type HashCorpus struct {
	parents  []*core.System
	Children []*core.System
}

// HashBatch is the number of children one Rebuild round produces.
const HashBatch = 64

// NewHashCorpus walks the scaled pyswitch workload and collects warm
// parent states. With oracle=true, fingerprints route through the
// full-reserialization oracle (Config.OracleHash).
func NewHashCorpus(oracle bool) *HashCorpus {
	cfg := pyswitchBench(3)
	cfg.OracleHash = oracle
	sim := core.NewSimulator(cfg)
	hc := &HashCorpus{Children: make([]*core.System, HashBatch)}
	for i := 0; i < 30; i++ {
		enabled := sim.Enabled()
		if len(enabled) == 0 {
			break
		}
		sim.Step(i % len(enabled))
		s := sim.System().Clone()
		s.Fingerprint() // warm the parent's component caches, as mid-search
		hc.parents = append(hc.parents, s)
	}
	return hc
}

// Rebuild repopulates Children with freshly forked states; round
// varies which parent and transition each slot uses.
func (hc *HashCorpus) Rebuild(round int) {
	for j := range hc.Children {
		p := hc.parents[(round+j)%len(hc.parents)]
		enabled := p.Enabled()
		c := p.Clone()
		if len(enabled) > 0 {
			c.Apply(enabled[j%len(enabled)])
		}
		hc.Children[j] = c
	}
}

// HashProbe measures pure state-hash throughput over a HashCorpus,
// timing only the Fingerprint calls (corpus rebuilding runs off the
// clock). With oracle=true the same children hash through the full
// from-scratch serialization.
func HashProbe(oracle bool, states int) Result {
	name := "hash/incremental"
	if oracle {
		name = "hash/oracle"
	}
	hc := NewHashCorpus(oracle)

	runtime.GC()
	var before, after runtime.MemStats
	var hashTime time.Duration
	hashed := 0
	var allocB, allocN uint64
	for hashed < states {
		hc.Rebuild(hashed)
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, c := range hc.Children {
			_ = c.Fingerprint()
		}
		hashTime += time.Since(start)
		runtime.ReadMemStats(&after)
		allocB += after.TotalAlloc - before.TotalAlloc
		allocN += after.Mallocs - before.Mallocs
		hashed += HashBatch
	}

	res := Result{
		Name:         name,
		Gate:         !oracle,
		UniqueStates: int64(hashed),
		WallMS:       float64(hashTime.Microseconds()) / 1000,
		AllocBytes:   allocB,
		AllocObjects: allocN,
		Complete:     true,
	}
	if secs := hashTime.Seconds(); secs > 0 {
		res.StatesPerSec = float64(hashed) / secs
	}
	return res
}

// runTable2 sweeps all 11 bugs × 4 strategies (stop at first violation,
// the paper's time-to-first-violation setup) and aggregates one result.
func runTable2() Result {
	var agg Result
	agg.Name = "table2-suite"
	agg.Complete = true
	var wall time.Duration
	for _, sc := range scenarios.Table2() {
		for _, st := range scenarios.Strategies {
			cfg := sc.Apply(sc.Config(0), st)
			r, w, ab, an := measure(func() *core.Report { return core.NewChecker(cfg).Run() })
			wall += w
			agg.UniqueStates += r.UniqueStates
			agg.Transitions += r.Transitions
			agg.Violations += len(r.Violations)
			agg.AllocBytes += ab
			agg.AllocObjects += an
			agg.Complete = agg.Complete && r.Complete
		}
	}
	agg.WallMS = float64(wall.Microseconds()) / 1000
	if secs := wall.Seconds(); secs > 0 {
		agg.StatesPerSec = float64(agg.UniqueStates) / secs
		agg.TransPerSec = float64(agg.Transitions) / secs
	}
	return agg
}

// WriteFile writes the suite as indented JSON.
func (s *Suite) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a previously written suite.
func Load(path string) (*Suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &s, nil
}

// Regression is one gated workload that fell outside the baseline on
// some metric (states/sec or allocations per state).
type Regression struct {
	Name     string
	Metric   string  // "states/sec" or "allocs/state"
	Baseline float64 // baseline value of the metric
	Current  float64 // current value
	Ratio    float64 // current / baseline
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.1f vs baseline %.1f (%.0f%%)",
		r.Name, r.Metric, r.Current, r.Baseline, r.Ratio*100)
}

// AllocsPerState is the workload's allocation count normalized per
// unique state — the allocs/op measure the CI gate tracks alongside
// throughput.
func (r Result) AllocsPerState() float64 {
	if r.UniqueStates <= 0 {
		return 0
	}
	return float64(r.AllocObjects) / float64(r.UniqueStates)
}

// Compare checks every gated baseline workload against the current
// run on two metrics: states/sec must not drop below (1 - tolerance)
// of the baseline, and allocations per unique state must not grow
// beyond (1 + allocTolerance) of the baseline. A vanished workload is
// a regression; being faster or leaner never is. allocTolerance <= 0
// disables the allocation gate.
func Compare(baseline, current *Suite, tolerance float64) []Regression {
	return CompareAlloc(baseline, current, tolerance, 0)
}

// CompareAlloc is Compare with the allocs/op gate enabled.
func CompareAlloc(baseline, current *Suite, tolerance, allocTolerance float64) []Regression {
	cur := make(map[string]Result, len(current.Results))
	for _, r := range current.Results {
		cur[r.Name] = r
	}
	var regs []Regression
	for _, b := range baseline.Results {
		if !b.Gate || b.StatesPerSec <= 0 {
			continue
		}
		c, ok := cur[b.Name]
		if !ok {
			regs = append(regs, Regression{Name: b.Name, Metric: "states/sec", Baseline: b.StatesPerSec})
			continue
		}
		ratio := c.StatesPerSec / b.StatesPerSec
		if ratio < 1-tolerance {
			regs = append(regs, Regression{
				Name: b.Name, Metric: "states/sec",
				Baseline: b.StatesPerSec, Current: c.StatesPerSec, Ratio: ratio,
			})
		}
		if ba := b.AllocsPerState(); allocTolerance > 0 && ba > 0 && c.AllocsPerState() > 0 {
			aratio := c.AllocsPerState() / ba
			if aratio > 1+allocTolerance {
				regs = append(regs, Regression{
					Name: b.Name, Metric: "allocs/state",
					Baseline: ba, Current: c.AllocsPerState(), Ratio: aratio,
				})
			}
		}
	}
	return regs
}
