// Package search holds the parallel state-space exploration engines:
// worker pools that explore the same core.System transition graph as
// the sequential core.Checker, concurrently. The paper's searches run
// millions of transitions (§7) and lean on hash-based state matching
// precisely because the explored set dominates (§6); these engines keep
// those semantics — every state expanded once, properties checked on
// every transition and at quiescence, the NO-DELAY/UNUSUAL/FLOW-IR
// reductions honored unchanged (they live inside System.Enabled) — and
// spread the expansion over cores:
//
//   - a lock-striped seen-set keyed by System.Fingerprint() (seenset.go),
//   - per-worker frontiers with work-stealing, where each work item is
//     a forked System plus the core.PathNode prefix that reached it
//     (frontier.go),
//   - two expansion orders: the BFS/DFS hybrid (Parallel: owners pop
//     depth-first, thieves steal breadth-first) and seeded random-walk
//     swarms (SwarmEngine, swarm.go).
//
// Counting, budgets, stop reasons, violation selection, progress and
// telemetry belong to the shared core.Kernel; this package supplies
// only the expansion orders.
//
// Workers=1 delegates the hybrid to the sequential core.Checker, which
// stays the reference oracle; search_test.go asserts differential
// parity between the two on the paper's scenarios.
package search

import (
	"context"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// shards is the seen-set stripe count.
const shards = 256

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name:    "parallel",
		Summary: "work-stealing parallel full search (owners DFS, thieves BFS)",
		New:     Parallel,
	})
	core.RegisterEngine(core.EngineSpec{
		Name:    "swarm",
		Summary: "parallel seeded random-walk swarm",
		New:     SwarmEngine,
	})
}

// Parallel returns the work-stealing hybrid engine: per-worker
// depth-first expansion over a work-stealing frontier whose steals are
// breadth-first. EngineOptions.Workers sizes the pool (0 = all CPUs;
// 1 delegates to the sequential checker). It visits exactly the states
// the sequential checker visits whenever state identity is
// schedule-independent — symbolic execution off, or discover caches
// warmed; on cold SE-enabled runs the counts can differ slightly, and
// the violated-property set matches regardless.
func Parallel() core.Engine { return parallelEngine{} }

type parallelEngine struct{}

func (parallelEngine) Name() string { return "parallel" }

// hybrid is one parallel hybrid search.
type hybrid struct {
	cfg      *core.Config
	k        *core.Kernel
	seen     *seenSet
	frontier *frontier

	// red is non-nil when the search runs with sleep-set reduction
	// (EngineOptions.Reduction); dporTel feeds the shared dpor scope.
	red     *core.SleepReducer
	dporTel *core.DporTelemetry
}

func (parallelEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	workers := eo.WorkerCount()
	if workers == 1 {
		// The report keeps Strategy "dfs": the sequential checker
		// really runs, and its Progress snapshots say so.
		return core.DFS().Search(ctx, cfg, eo)
	}
	h := &hybrid{cfg: cfg, seen: newSeenSet(shards)}
	h.frontier = newFrontier(workers, func() bool { return h.k.Stopped() })
	h.k = core.StartKernel(ctx, "parallel", cfg, eo.CacheSet(), eo,
		core.KernelHooks{Frontier: h.frontier.pending.Load})

	root := h.k.Root()
	if eo.Reduction == core.ReductionDPOR {
		h.red = core.NewSleepReducer(root)
		h.dporTel = core.NewDporTelemetry(eo.Telemetry)
	}
	h.seen.Add(root.Fingerprint())
	h.k.AddState(0)
	h.frontier.push(0, item{sys: root})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc core.SleepScratch
			for {
				it, ok := h.frontier.get(w)
				if !ok {
					return
				}
				h.expand(w, it, &sc)
				// The item is fully expanded: recycle its System's
				// struct and slice backings (components live on in
				// the pushed children that borrowed them).
				it.sys.Release()
				h.frontier.done()
			}
		}(w)
	}
	wg.Wait()
	if tel := h.k.Telemetry(); tel != nil {
		tel.SyncSteals(h.frontier.steals.Load())
		tel.SetShardOccupancy(h.seen.occupancy())
	}
	return h.k.Finish()
}

// expand processes one frontier item, mirroring the sequential
// checker's per-state work (checker.go dfs): quiescence properties on
// dead ends, depth truncation, then one clone+apply per enabled
// transition with property checks, pushing unseen children. Violating
// transitions are recorded and their subtrees pruned, exactly as the
// paper's checker "saves the error and trace and does not explore past
// a violating state".
//
// Under sleep-set reduction (h.red non-nil) the loop additionally
// skips transitions the item's sleep set covers, hands each child the
// sleep set it is owed (incoming entries plus executed siblings,
// filtered by independence), and routes revisits through the seen-set's
// sleep signatures: a revisit under a smaller sleep set re-expands
// exactly the keys that slipped awake. Sleep sets prune transition
// executions only, never states, so UniqueStates matches the unreduced
// search.
func (h *hybrid) expand(w int, it item, sc *core.SleepScratch) {
	k := h.k
	if k.Stopped() {
		return
	}
	enabled := it.sys.EnabledInto(getTransBuf())
	defer putTransBuf(enabled)
	if len(enabled) == 0 {
		for _, f := range it.sys.CheckQuiescence() {
			k.Record(f, it.path, nil, true)
		}
		return
	}
	depth := it.path.Depth()
	if depth >= h.cfg.DepthBound() {
		k.Truncate()
		return
	}

	var executed []int
	if h.red != nil {
		h.red.Prepare(it.sys, enabled, sc)
	}

	// The per-transition event batch lives only until the property
	// checks below, so one pooled buffer serves the whole expansion.
	events := getEventBuf()
	// Deferred via closure: ApplyInto may grow the buffer, and the
	// grown backing is the one worth pooling.
	defer func() { putEventBuf(events) }()

	for i, t := range enabled {
		if h.red != nil {
			if it.wake != nil && !keyIn64(it.wake, sc.Key(i)) {
				// Covered by this state's previous, larger expansion.
				h.dporTel.Pruned(1)
				continue
			}
			if sc.Asleep(it.sleep, i) {
				h.dporTel.SleepHit()
				continue
			}
		}
		if !k.ReserveTransition() {
			return
		}
		child := it.sys.Clone()
		events = child.ApplyInto(t, events)

		violated := false
		for _, f := range child.CheckEvents(events) {
			k.Record(f, it.path, []core.Transition{t}, false)
			violated = true
		}
		var childSleep []core.SleepEntry
		if h.red != nil {
			if !violated {
				childSleep = sc.ChildSleep(it.sleep, executed, i)
			}
			// Executed siblings join the sleep-source even when they
			// violated: their interleavings are covered either way.
			executed = append(executed, i)
		}
		if violated {
			child.Release()
			continue
		}

		var isNew bool
		var wake []uint64
		if h.red != nil {
			isNew, wake = h.seen.AddSleep(child.Fingerprint(), core.SleepKeySet(childSleep))
		} else {
			isNew = h.seen.Add(child.Fingerprint())
		}
		switch {
		case isNew:
			k.AddState(depth + 1)
			h.frontier.push(w, item{sys: child, sleep: childSleep, path: it.path.Child(t)})
		case wake != nil:
			k.Revisit()
			h.dporTel.Reexpansion()
			h.frontier.push(w, item{sys: child, sleep: childSleep, wake: wake, path: it.path.Child(t)})
		default:
			k.Revisit()
			child.Release()
		}
	}
}
