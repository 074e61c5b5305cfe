package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/telemetry"
)

// StopReason explains why a search ended before exhausting the state
// space. The empty reason means the search ran to completion.
type StopReason string

const (
	// StopNone: the search exhausted the (bounded) state space.
	StopNone StopReason = ""
	// StopViolation: StopAtFirstViolation ended the search. The report
	// still counts as complete — the search achieved its purpose.
	StopViolation StopReason = "violation"
	// StopMaxTransitions: the transition budget ran out.
	StopMaxTransitions StopReason = "max-transitions"
	// StopMaxStates: the unique-state budget ran out.
	StopMaxStates StopReason = "max-states"
	// StopDeadline: the context's deadline expired.
	StopDeadline StopReason = "deadline"
	// StopCanceled: the context was canceled.
	StopCanceled StopReason = "canceled"
	// StopSymBudget: the symbolic-execution budget ran out — a state
	// needed a discover transition the concolic loop was no longer
	// allowed to solve (EngineOptions.SymBudget).
	StopSymBudget StopReason = "sym-budget"
)

// Partial reports whether the reason marks a budget- or
// cancellation-aborted search (a partial, but still replayable, report).
func (r StopReason) Partial() bool {
	switch r {
	case StopMaxTransitions, StopMaxStates, StopDeadline, StopCanceled, StopSymBudget:
		return true
	}
	return false
}

// ContextStopReason maps a done context to its stop reason: StopDeadline
// when the deadline expired, StopCanceled otherwise.
func ContextStopReason(ctx context.Context) StopReason {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

// Progress is one periodic snapshot of a running search, delivered to
// an Observer while the engine works.
type Progress struct {
	// Strategy names the engine ("dfs", "parallel", "walks", "swarm",
	// "concolic").
	Strategy string
	// Elapsed is wall-clock time since the search started.
	Elapsed time.Duration
	// Transitions, UniqueStates, Revisits, Truncated and SERuns mirror
	// the Report counters at snapshot time.
	Transitions  int64
	UniqueStates int64
	Revisits     int64
	Truncated    int64
	SERuns       int64
	// Frontier is the number of discovered-but-unexpanded states
	// (parallel and concolic engines; the others report 0).
	Frontier int64
	// Depth is the deepest trace at which a unique state was reached
	// so far.
	Depth int
	// StatesPerSec is UniqueStates/Elapsed.
	StatesPerSec float64
	// PeakHeapInUse is the peak in-use heap observed at snapshot times
	// since the search started (process-wide bytes from
	// runtime.MemStats — concurrent searches share the envelope).
	PeakHeapInUse uint64
	// CacheHitRate is the discover-cache lookup hit fraction so far.
	// The counters live in the telemetry registry, so it stays 0 unless
	// one is attached (EngineOptions.Telemetry).
	CacheHitRate float64
	// Final marks the last snapshot of a run, emitted as the engine
	// returns, so observers always see the closing totals.
	Final bool
}

// Observer receives streaming search results: each violation the first
// time its property + error is found (with the trace found first; the
// Report keeps the shortest) and periodic Progress snapshots. Every
// engine calls OnProgress from a ticker goroutine, and parallel engines
// call OnViolation from worker goroutines, so implementations must be
// safe for concurrent use; callbacks should return promptly — the hot
// path does not buffer.
type Observer interface {
	OnViolation(v Violation)
	OnProgress(p Progress)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are no-ops.
type ObserverFuncs struct {
	Violation func(Violation)
	Progress  func(Progress)
}

func (o ObserverFuncs) OnViolation(v Violation) {
	if o.Violation != nil {
		o.Violation(v)
	}
}

func (o ObserverFuncs) OnProgress(p Progress) {
	if o.Progress != nil {
		o.Progress(p)
	}
}

// EngineOptions carries the runtime knobs every engine honors: budgets,
// the streaming observer, worker/walk sizing, and an optional shared
// discover-cache set. The zero value means "no budgets, no observer,
// engine defaults".
type EngineOptions struct {
	// MaxStates aborts the search once this many unique states have
	// been reached (0 = unlimited).
	MaxStates int64
	// MaxTransitions aborts the search after this many executed
	// transitions (0 = unlimited). When Config.MaxTransitions is also
	// set, the smaller budget wins.
	MaxTransitions int64
	// Workers sizes parallel engines (0 = all CPUs, 1 = sequential).
	Workers int
	// Seed drives walk engines (walk i of a swarm uses Seed+i).
	Seed int64
	// Walks is the number of random walks (0 = 64).
	Walks int
	// Steps bounds transitions per walk (0 = 100).
	Steps int
	// Observer streams violations-as-found and progress snapshots
	// (nil = no streaming; the engines skip all observer work).
	Observer Observer
	// ProgressEvery is the snapshot interval (0 = 500ms). Only
	// meaningful with an Observer.
	ProgressEvery time.Duration
	// Caches shares a discover-cache set across runs (nil = fresh).
	Caches *Caches
	// Telemetry is the optional metrics registry the engines instrument
	// into (internal/telemetry): per-engine counters, gauges, depth
	// histograms and trace events. Nil — the default — disables every
	// instrumentation site behind a single nil check.
	Telemetry *telemetry.Registry
	// Reduction selects an interleaving-reduction layer (dpor.go).
	// ReductionNone — the default — explores every enabled transition.
	// ReductionDPOR enables sleep-set/persistent-set pruning in the
	// systematic engines; walk engines ignore it (a random walk explores
	// one interleaving, there is nothing to prune).
	Reduction Reduction
	// SymBudget bounds the concolic loop's symbolic-execution runs
	// (discover explorations); 0 = unlimited. When the budget runs out
	// while a state still demands discovery, the search aborts with
	// StopSymBudget. Engines other than the concolic loop ignore it.
	SymBudget int64
	// SymWorkers sizes the concolic loop's solver-worker pool (0 = 2).
	// Engines other than the concolic loop ignore it.
	SymWorkers int
}

// SolverPool is the effective concolic solver-worker count.
func (o EngineOptions) SolverPool() int {
	if o.SymWorkers <= 0 {
		return 2
	}
	return o.SymWorkers
}

// ProgressInterval is the effective snapshot interval.
func (o EngineOptions) ProgressInterval() time.Duration {
	if o.ProgressEvery <= 0 {
		return 500 * time.Millisecond
	}
	return o.ProgressEvery
}

// WorkerCount is the effective worker-pool size of parallel engines.
func (o EngineOptions) WorkerCount() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// WalkCount is the effective number of walks.
func (o EngineOptions) WalkCount() int {
	if o.Walks <= 0 {
		return 64
	}
	return o.Walks
}

// StepBound is the effective per-walk step bound.
func (o EngineOptions) StepBound() int {
	if o.Steps <= 0 {
		return 100
	}
	return o.Steps
}

// EffectiveMaxTransitions merges the config-level and option-level
// transition budgets: the smaller nonzero bound wins.
func (o EngineOptions) EffectiveMaxTransitions(cfg *Config) int64 {
	budget := cfg.MaxTransitions
	if o.MaxTransitions > 0 && (budget == 0 || o.MaxTransitions < budget) {
		budget = o.MaxTransitions
	}
	return budget
}

// CacheSet returns the shared cache set, or a fresh one.
func (o EngineOptions) CacheSet() *Caches {
	if o.Caches != nil {
		return o.Caches
	}
	return NewCaches()
}

// Engine is a pluggable search strategy: one way of exploring a
// Config's transition graph. The sequential DFS checker, the parallel
// work-stealing engine, the sequential random walks, the seeded swarm
// and the concolic loop all implement it, so every front end — CLI,
// benchmarks, tests, servers — drives searches through the same entry
// point (nice.Run).
//
// Each engine runs its search on a Kernel, which honors context
// cancellation and the EngineOptions budgets and always returns a
// partial-but-replayable Report on abort: every violation trace
// recorded so far still reproduces deterministically from the initial
// state.
type Engine interface {
	// Name is the engine's stable identifier, recorded in
	// Report.Strategy and Progress.Strategy.
	Name() string
	// Search explores cfg under the given options.
	Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report
}

// DFS returns the sequential depth-first reference engine — the
// paper's default full search (Figure 5), and the oracle the parallel
// engines are differentially tested against.
func DFS() Engine { return dfsEngine{} }

type dfsEngine struct{}

func (dfsEngine) Name() string { return "dfs" }

func (dfsEngine) Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report {
	return NewCheckerWith(cfg, opts.CacheSet()).RunContext(ctx, opts)
}

// Walks returns the sequential random-walk engine (§1.3's "random walks
// on system states"): EngineOptions.Walks walks of at most Steps
// transitions, all drawn from one rand stream seeded with Seed.
func Walks() Engine { return walkEngine{} }

type walkEngine struct{}

func (walkEngine) Name() string { return "walks" }

func (walkEngine) Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report {
	rng := rand.New(rand.NewSource(opts.Seed))
	k := StartKernel(ctx, "walks", cfg, opts.CacheSet(), opts, KernelHooks{})
	seen := make(map[canon.Digest]bool)
	firstVisit := func(h canon.Digest) bool {
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}
	// A stop ends the whole walk set, not just the current walk.
	for w := 0; w < opts.WalkCount() && !k.Stopped(); w++ {
		Walk(k, rng, opts.StepBound(), firstVisit)
	}
	return k.Finish()
}

// Walk runs one random execution of at most steps transitions from the
// initial state, drawing each transition from rng. It counts a state
// when firstVisit reports its fingerprint new, and it ends at a
// quiescent state, at a violating transition, or when the search
// stops. The walks and swarm engines differ only in how they seed rng
// and share firstVisit.
func Walk(k *Kernel, rng *rand.Rand, steps int, firstVisit func(canon.Digest) bool) {
	sys := k.Root()
	var trace []Transition
	var events []Event
	for step := 0; step < steps && !k.Stopped(); step++ {
		if firstVisit(sys.Fingerprint()) {
			k.AddState(len(trace))
		}
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			for _, f := range sys.CheckQuiescence() {
				k.Record(f, nil, trace, true)
			}
			return
		}
		t := enabled[rng.Intn(len(enabled))]
		if !k.ReserveTransition() {
			return
		}
		events = sys.ApplyInto(t, events)
		trace = append(trace, t)
		violated := false
		for _, f := range sys.CheckEvents(events) {
			k.Record(f, nil, trace, false)
			violated = true
		}
		if violated {
			return
		}
	}
}
