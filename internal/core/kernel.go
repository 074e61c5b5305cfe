package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel is the part of the paper's search loop (Figure 5) that does
// not depend on the order states are expanded in: the counters, the
// stop reason and its budgets, the context watcher, violation
// collection, progress streaming, telemetry and the final Report.
// Every engine starts one kernel per search and supplies only its
// expansion order — the sequential DFS and its DPOR variant, the
// sequential walks, the parallel hybrid, the swarm and the concolic
// loop all count, stop and record through the same methods, so they
// share one stop contract and one violation-selection rule.
//
// All methods but Finish are safe for concurrent use. The
// per-transition methods (Stopped, ReserveTransition, AddState,
// Revisit) are lock-free and allocation-free.
type Kernel struct {
	strategy  string
	ctx       context.Context
	cfg       *Config
	caches    *Caches
	obs       Observer
	tel       *SearchTelemetry
	sysTel    *SystemTelemetry
	maxTrans  int64
	maxStates int64
	start     time.Time
	hooks     KernelHooks

	transitions atomic.Int64
	unique      atomic.Int64
	revisits    atomic.Int64
	truncated   atomic.Int64
	maxDepth    atomic.Int64
	stop        atomic.Bool
	reason      atomic.Int32 // index into stopReasons; first writer wins

	mu    sync.Mutex
	viols map[violationKey]Violation

	unwatch      func()
	stopProgress func()
	heap         heapPeak // sampled only from the progress goroutine
}

// KernelHooks are an engine's optional contributions to the kernel.
type KernelHooks struct {
	// Frontier reports the discovered-but-unexpanded state count for
	// progress snapshots. It runs on the progress goroutine.
	Frontier func() int64
	// OnStop runs once, on the goroutine that first stops the search
	// (a worker, or the context watcher) — the hook engines with
	// blocking worklists use to wake their waiters.
	OnStop func()
}

// stopReasons is the one table of stop reasons; the kernel stores an
// index into it so the first reason recorded can win with a single
// compare-and-swap.
var stopReasons = [...]StopReason{
	StopNone, StopViolation, StopMaxTransitions, StopMaxStates,
	StopDeadline, StopCanceled, StopSymBudget,
}

func reasonIndex(r StopReason) int32 {
	for i, s := range stopReasons {
		if s == r {
			return int32(i)
		}
	}
	return 0
}

// StartKernel begins one search: it resolves the engine's telemetry,
// starts the context watcher and the progress ticker, and emits the
// search-start event. With no Observer, no telemetry registry and a
// context that cannot be canceled it starts no goroutine. A context
// already done stops the search before it begins.
func StartKernel(ctx context.Context, strategy string, cfg *Config, cc *Caches,
	opts EngineOptions, hooks KernelHooks) *Kernel {
	k := &Kernel{
		strategy:  strategy,
		ctx:       ctx,
		cfg:       cfg,
		caches:    cc,
		obs:       opts.Observer,
		tel:       NewSearchTelemetry(opts.Telemetry, strategy),
		sysTel:    NewSystemTelemetry(opts.Telemetry),
		maxTrans:  opts.EffectiveMaxTransitions(cfg),
		maxStates: opts.MaxStates,
		start:     time.Now(),
		hooks:     hooks,
		viols:     make(map[violationKey]Violation),
	}
	cc.AttachTelemetry(opts.Telemetry)
	k.tel.SearchStart()
	k.unwatch = k.watch()
	k.stopProgress = k.startProgress(opts.ProgressInterval())
	return k
}

// Root returns a fresh initial state wired to the search's telemetry.
func (k *Kernel) Root() *System {
	s := newSystem(k.cfg, k.caches)
	s.SetTelemetry(k.sysTel)
	return s
}

// Telemetry is the engine's metric bundle (nil when no registry is
// attached), for the signals only the engine sees.
func (k *Kernel) Telemetry() *SearchTelemetry { return k.tel }

// Stopped reports whether the search has stopped, for any reason.
func (k *Kernel) Stopped() bool { return k.stop.Load() }

// Abort stops the search. The first reason recorded wins; a partial
// reason (a budget or the context) also traces the budget event.
func (k *Kernel) Abort(r StopReason) {
	if r == StopNone {
		return
	}
	if k.reason.CompareAndSwap(0, reasonIndex(r)) && r.Partial() {
		k.tel.Budget(r, k.transitions.Load())
	}
	if k.stop.CompareAndSwap(false, true) && k.hooks.OnStop != nil {
		k.hooks.OnStop()
	}
}

// StopReason is the reason recorded so far (StopNone while running).
func (k *Kernel) StopReason() StopReason { return stopReasons[k.reason.Load()] }

// ReserveTransition claims one slot of the transition budget before
// the caller applies a transition. It fails — and the caller must not
// apply — once the search has stopped or the budget is spent; the
// slot is reserved before the apply and rolled back on overshoot, so
// the bound is exact even when workers race on the last slots.
func (k *Kernel) ReserveTransition() bool {
	if k.stop.Load() {
		return false
	}
	if n := k.transitions.Add(1); k.maxTrans > 0 && n > k.maxTrans {
		k.transitions.Add(-1)
		k.Abort(StopMaxTransitions)
		return false
	}
	return true
}

// AddState counts a newly reached unique state at the given trace
// depth, stopping the search once the MaxStates budget is reached.
func (k *Kernel) AddState(depth int) {
	if n := k.unique.Add(1); k.maxStates > 0 && n >= k.maxStates {
		k.Abort(StopMaxStates)
	}
	k.tel.ObserveDepth(depth)
	for d := int64(depth); ; {
		cur := k.maxDepth.Load()
		if d <= cur || k.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Revisit counts an arrival at an already-explored state.
func (k *Kernel) Revisit() { k.revisits.Add(1) }

// Truncate counts a path cut off by the depth bound.
func (k *Kernel) Truncate() { k.truncated.Add(1) }

// violationKey identifies a violation: its property and error text.
type violationKey struct{ property, err string }

// Record registers one property failure whose trace is prefix followed
// by tail (either may be empty; tail is borrowed and copied only if
// the violation is kept). Violations dedupe by property and error
// text. Per key the shortest trace wins, ties going to the
// lexicographically smaller sequence of transition keys, so the kept
// trace does not depend on the order the engine found its candidates
// in; a longer candidate is dismissed without rendering either trace.
// A new key streams to the Observer. Under StopAtFirstViolation every
// recorded failure stops the search.
func (k *Kernel) Record(f PropertyFailure, prefix *PathNode, tail []Transition, quiescence bool) {
	key := violationKey{f.Property, f.Err.Error()}
	n := prefix.Depth() + len(tail)
	k.mu.Lock()
	kept, ok := k.viols[key]
	replace := !ok || n < len(kept.Trace)
	if ok && n == len(kept.Trace) {
		if prefix != nil {
			tail, prefix = prefix.traceWith(tail), nil
		}
		replace = tracePrecedes(tail, kept.Trace)
	}
	var v Violation
	if replace {
		v = Violation{Property: f.Property, Err: f.Err,
			Trace: prefix.traceWith(tail), Quiescence: quiescence}
		k.viols[key] = v
	}
	k.mu.Unlock()

	if !ok {
		k.tel.Violation(f.Property)
		if k.obs != nil {
			k.obs.OnViolation(v)
		}
	}
	if k.cfg.StopAtFirstViolation {
		k.Abort(StopViolation)
	}
}

// tracePrecedes reports whether a's transition keys sort before b's
// (traces of equal length). Identical transitions — typically the
// shared prefix of two candidates — are skipped without rendering.
func tracePrecedes(a, b []Transition) bool {
	for i := range a {
		if a[i].same(b[i]) {
			continue
		}
		if ka, kb := a[i].Key(), b[i].Key(); ka != kb {
			return ka < kb
		}
	}
	return false
}

// violations returns the kept violations sorted by property, then
// error text.
func (k *Kernel) violations() []Violation {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Violation, 0, len(k.viols))
	keys := make([]violationKey, 0, len(k.viols))
	for key := range k.viols {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].property != keys[j].property {
			return keys[i].property < keys[j].property
		}
		return keys[i].err < keys[j].err
	})
	for _, key := range keys {
		out = append(out, k.viols[key])
	}
	return out
}

// Finish ends the search: it stops the watcher, lets a cancellation
// that raced the end of the search still mark the report canceled (an
// earlier reason keeps precedence), assembles the Report, emits the
// Final progress snapshot — always the last Observer callback — and
// then the search-stop event. Call it once the engine's workers have
// returned.
func (k *Kernel) Finish() *Report {
	k.unwatch()
	if k.ctx.Err() != nil {
		k.Abort(ContextStopReason(k.ctx))
	}
	reason := k.StopReason()
	r := &Report{
		Transitions:   k.transitions.Load(),
		UniqueStates:  k.unique.Load(),
		Revisits:      k.revisits.Load(),
		Truncated:     k.truncated.Load(),
		SERuns:        k.caches.SERuns(),
		PacketClasses: k.caches.Classes(),
		Violations:    k.violations(),
		Elapsed:       time.Since(k.start),
		Complete:      !reason.Partial(),
		Strategy:      k.strategy,
		StopReason:    reason,
	}
	k.stopProgress()
	k.tel.SearchStop(reason, r)
	return r
}

// watch aborts the search when the context is done. The returned func
// stops the watcher goroutine and waits for it to exit.
func (k *Kernel) watch() func() {
	done := k.ctx.Done()
	if done == nil {
		return func() {}
	}
	select {
	case <-done:
		k.Abort(ContextStopReason(k.ctx))
		return func() {}
	default:
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			k.Abort(ContextStopReason(k.ctx))
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// startProgress streams periodic snapshots to the Observer and the
// telemetry registry from one ticker goroutine. The returned func
// joins that goroutine and then emits the Final snapshot, so Final is
// always the last OnProgress call and every registry sync runs on one
// goroutine at a time.
func (k *Kernel) startProgress(interval time.Duration) func() {
	if k.obs == nil && k.tel == nil {
		return func() {}
	}
	done := make(chan struct{})
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				k.emit(false)
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-idle
		k.emit(true)
	}
}

// emit takes one snapshot and delivers it to the registry and the
// Observer.
func (k *Kernel) emit(final bool) {
	p := Progress{
		Strategy:      k.strategy,
		Elapsed:       time.Since(k.start),
		Transitions:   k.transitions.Load(),
		UniqueStates:  k.unique.Load(),
		Revisits:      k.revisits.Load(),
		Truncated:     k.truncated.Load(),
		SERuns:        k.caches.SERuns(),
		Depth:         int(k.maxDepth.Load()),
		PeakHeapInUse: k.heap.sample(),
		CacheHitRate:  k.caches.HitRate(),
		Final:         final,
	}
	if k.hooks.Frontier != nil {
		p.Frontier = k.hooks.Frontier()
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.StatesPerSec = float64(p.UniqueStates) / secs
	}
	k.tel.SyncProgress(p)
	if k.obs != nil {
		k.obs.OnProgress(p)
	}
}

// PathNode is one link of a replayable trace prefix held as a
// parent-pointer chain: sibling states share their whole prefix
// through one pointer, and a trace is materialized only when a
// violation is recorded. The nil node is the empty trace.
type PathNode struct {
	t      Transition
	parent *PathNode
	depth  int
}

// Child extends the path by one transition.
func (n *PathNode) Child(t Transition) *PathNode {
	return &PathNode{t: t, parent: n, depth: n.Depth() + 1}
}

// Depth is the trace length the node represents.
func (n *PathNode) Depth() int {
	if n == nil {
		return 0
	}
	return n.depth
}

// traceWith materializes the node's trace followed by tail, in a new
// slice.
func (n *PathNode) traceWith(tail []Transition) []Transition {
	d := n.Depth()
	out := make([]Transition, d+len(tail))
	copy(out[d:], tail)
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.depth-1] = cur.t
	}
	return out
}
