package main

import (
	"fmt"
	"sort"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
)

// searchCounts is what the mirror must reproduce of core.Checker: the
// state-graph counts and the violation set ("property|error" keys).
type searchCounts struct {
	unique, transitions, revisits, truncated int64
	violations                               []string
}

func countsOf(r *core.Report) searchCounts {
	c := searchCounts{unique: r.UniqueStates, transitions: r.Transitions,
		revisits: r.Revisits, truncated: r.Truncated}
	for _, v := range r.Violations {
		c.violations = append(c.violations, v.Property+"|"+v.Err.Error())
	}
	sort.Strings(c.violations)
	return c
}

func (c searchCounts) equal(o searchCounts) bool {
	return fmt.Sprint(c) == fmt.Sprint(o)
}

// mirror is the benchmark's copy of core.Checker's sequential DFS
// (internal/core/checker.go), driven through System's exported methods
// so that every call into a layer can be timed from outside. It must
// explore exactly the states and transitions the checker explores; the
// traced run fails when it does not.
type mirror struct {
	name     string
	cfg      *core.Config
	tr       *tracer
	explored map[canon.Digest]bool
	counts   searchCounts
	seen     map[string]bool
	stopped  bool
	// budgetStop marks a search cut short by MaxTransitions (partial),
	// as opposed to a first-violation stop (complete).
	budgetStop bool
	maxTrans   int64
	depthBound int
	transBufs  [][]core.Transition
	eventBuf   []core.Event
	// widthSum / expansions give core.enabled_width.
	widthSum, expansions int64
}

// runMirror searches cfg from cold caches, recording one trace. The
// registry, when non-nil, receives the cow/cache/sym counters.
func runMirror(cfg *core.Config, reg *telemetry.Registry, tr *tracer) *mirror {
	m := &mirror{
		cfg:        cfg,
		tr:         tr,
		explored:   make(map[canon.Digest]bool),
		seen:       make(map[string]bool),
		maxTrans:   core.EngineOptions{}.EffectiveMaxTransitions(cfg),
		depthBound: cfg.DepthBound(),
	}
	cc := core.NewCaches()
	cc.AttachTelemetry(reg)
	root := tr.root(spSearch)
	sys := core.NewSystemWith(cfg, cc)
	sys.SetTelemetry(core.NewSystemTelemetry(reg))
	m.dfs(sys, root, 0)
	tr.close(root)
	sort.Strings(m.counts.violations)
	return m
}

func (m *mirror) dfs(sys *core.System, parent int32, depth int) {
	if m.stopped {
		return
	}
	e := m.tr.open(spExpand, parent)
	m.expand(sys, e, depth)
	m.tr.close(e)
}

func (m *mirror) expand(sys *core.System, e int32, depth int) {
	tr := m.tr
	t := tr.now()
	h := sys.Fingerprint()
	tr.leaf(spFingerprint, e, t)

	t = tr.now()
	seen := m.explored[h]
	if !seen {
		m.explored[h] = true
	}
	tr.leaf(spSeen, e, t)
	if seen {
		m.counts.revisits++
		return
	}
	m.counts.unique++

	for len(m.transBufs) <= depth {
		m.transBufs = append(m.transBufs, nil)
	}
	t = tr.now()
	enabled := sys.EnabledInto(m.transBufs[depth])
	tr.leaf(spEnabled, e, t)
	m.transBufs[depth] = enabled[:0]
	m.widthSum += int64(len(enabled))
	m.expansions++

	if len(enabled) == 0 {
		t = tr.now()
		fails := sys.CheckQuiescence()
		tr.leaf(spCheckQuiescence, e, t)
		for _, f := range fails {
			m.record(f)
			if m.stopped {
				return
			}
		}
		return
	}
	if depth >= m.depthBound {
		m.counts.truncated++
		return
	}

	for _, tn := range enabled {
		if m.stopped {
			return
		}
		if m.maxTrans > 0 && m.counts.transitions >= m.maxTrans {
			m.stopped, m.budgetStop = true, true
			return
		}
		t = tr.now()
		child := sys.Clone()
		tr.leaf(spClone, e, t)

		t = tr.now()
		events := child.ApplyInto(tn, m.eventBuf)
		tr.leaf(applySpan(tn.Kind), e, t)
		m.eventBuf = events
		m.counts.transitions++

		t = tr.now()
		fails := child.CheckEvents(events)
		tr.leaf(spCheckEvents, e, t)
		for _, f := range fails {
			m.record(f)
		}
		if len(fails) == 0 {
			m.dfs(child, e, depth+1)
		}
		t = tr.now()
		child.Release()
		tr.leaf(spRelease, e, t)
	}
}

// record mirrors Checker.recordViolation: violations dedupe on
// property and error text, and a first-violation search stops.
func (m *mirror) record(f core.PropertyFailure) {
	key := f.Property + "|" + f.Err.Error()
	if !m.seen[key] {
		m.seen[key] = true
		m.counts.violations = append(m.counts.violations, key)
	}
	if m.cfg.StopAtFirstViolation {
		m.stopped = true
	}
}

// applySpan files ApplyInto time under the layer that executes the
// transition kind.
func applySpan(k core.TransitionKind) uint8 {
	switch k {
	case core.THostSend, core.THostReply, core.THostMove:
		return spApplyHosts
	case core.THostDiscover, core.TCtrlDiscoverStats:
		return spDiscover
	case core.TCtrlDispatch, core.TCtrlProcessStats, core.TCtrlEnv:
		return spApplyController
	case core.TSwitchProcess, core.TSwitchProcessPort, core.TSwitchOF, core.TSwitchTick:
		return spApplyOpenflow
	default:
		return spApplyFaults
	}
}
