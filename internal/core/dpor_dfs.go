package core

import (
	"math/bits"

	"github.com/nice-go/nice/internal/canon"
)

// Stateful Flanagan–Godefroid DPOR for the sequential checker: sleep
// sets prune redundant transitions, dynamically-computed backtrack sets
// prune whole subtrees, and per-state bookkeeping (dporNode) adapts both
// to the checker's hash-matched state storage. The exploration order,
// state counting, quiescence/depth semantics and violation handling
// mirror dfs() exactly — DPOR changes only WHICH enabled transitions get
// executed, never what happens when one does.
//
// Two stateful-search adaptations on top of the classic stack-based
// algorithm:
//
//   - Sleep signatures (Godefroid): a state stores the sleep set it was
//     explored under. Reaching it again with a smaller sleep set means
//     some transitions slept then are awake now; only that difference is
//     re-expanded, and the stored signature shrinks to the intersection.
//
//   - Subtree summaries: a fully-explored state stores a summary of the
//     transitions executed anywhere below it (a few exact (key,
//     footprint) pairs plus a union residual). Revisiting the state
//     hash-prunes the subtree, so the summary stands in for the hidden
//     transitions in race detection: each exact pair gets the standard
//     last-dependent-frame backtrack insertion; the residual — a union
//     of unlike footprints for which a single insertion point would be
//     unsound — inserts at every dependent frame. States still being
//     explored (cycles) and depth-truncated states use the
//     all-conflicting global footprint as their summary.
type dporNode struct {
	// sum summarizes every transition executed in the subtree below
	// this state (valid once inProgress is false).
	sum dporSummary
	// sleep is the sleep signature: transition keys asleep when the
	// state was (last) expanded. Shrinks monotonically on re-expansion.
	sleep []uint64
	// inProgress marks states on the current DFS path (or mid
	// re-expansion); their summaries are not yet trustworthy.
	inProgress bool
}

// sleepEntry is one sleeping transition: its identity hash and the
// footprint it had at the state where it fell asleep.
type sleepEntry struct {
	key uint64
	fp  footprint
}

// sumEntry is one summarized hidden transition. Beyond its identity and
// footprint it records anc, the union footprint of its subtree-local
// happens-before ancestors (transitions below the summarized state that
// precede it in the dependence order). An empty exact anc certifies the
// transition's whole causal past is visible on the current path, which
// is what the causal-skip proof in dporRaceInsert needs; a non-empty
// exact anc still yields certified chain-representative candidates
// (path frames coupling into the hidden ancestry). ancExact goes false
// when deduplication unions unlike ancestries — such an entry keeps
// only the certificate-free insertions (its own key, or everything).
type sumEntry struct {
	key      uint64
	fp       footprint
	anc      footprint
	ancExact bool
}

// dporSummary is a bounded subtree summary: up to dporSummaryCap exact
// entries — precise race insertion — and a union residual for the
// overflow — conservative insertion at every dependent frame. Entries
// are deduplicated by (key, footprint); occurrences of one key with
// different footprints stay separate (merging footprints would move the
// deepest-race determination, which is unsound).
type dporSummary struct {
	exact       []sumEntry
	residual    footprint
	hasResidual bool
}

const dporSummaryCap = 24

func (s *dporSummary) add(e sumEntry) {
	for i := range s.exact {
		have := &s.exact[i]
		if have.key == e.key && have.fp == e.fp {
			if have.anc != e.anc {
				have.anc.union(e.anc)
				have.ancExact = false
			} else if !e.ancExact {
				have.ancExact = false
			}
			return
		}
	}
	if len(s.exact) < dporSummaryCap {
		s.exact = append(s.exact, e)
		return
	}
	s.residual.union(e.fp)
	s.hasResidual = true
}

// merge folds o into s with no change of reference state (both summaries
// describe subtrees of the same node).
func (s *dporSummary) merge(o dporSummary) {
	for _, e := range o.exact {
		s.add(e)
	}
	if o.hasResidual {
		s.residual.union(o.residual)
		s.hasResidual = true
	}
}

// mergeFolded hoists a child-subtree summary one level: the transition
// that produced the child (footprint fpT) becomes subtree-local to the
// parent, so it joins the recorded ancestry of every entry it
// happens-before (it is dependent with the entry or with one of the
// entry's own ancestors). Entries are copied; o is left untouched (it
// may be a stored node summary).
func (s *dporSummary) mergeFolded(o dporSummary, fpT footprint) {
	for _, e := range o.exact {
		if Dependent(fpT, e.fp) || Dependent(fpT, e.anc) {
			e.anc.union(fpT)
		}
		s.add(e)
	}
	if o.hasResidual {
		s.residual.union(o.residual)
		s.hasResidual = true
	}
}

func (f footprint) empty() bool {
	return f.r == compSet{} && f.w == compSet{}
}

// idxSet is a reusable bitset over enabled-transition indices.
type idxSet struct{ w []uint64 }

func (s *idxSet) reset(n int) {
	need := (n + 63) / 64
	if cap(s.w) < need {
		s.w = make([]uint64, need)
		return
	}
	s.w = s.w[:need]
	for i := range s.w {
		s.w[i] = 0
	}
}

func (s *idxSet) get(i int) bool { return s.w[i>>6]&(1<<uint(i&63)) != 0 }

// set sets bit i, reporting whether it was newly set.
func (s *idxSet) set(i int) bool {
	word, bit := &s.w[i>>6], uint64(1)<<uint(i&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// unionWith ors o into s; both must be sized alike.
func (s *idxSet) unionWith(o *idxSet) {
	for i := range o.w {
		s.w[i] |= o.w[i]
	}
}

// setAll sets bits [0,n), reporting whether any was newly set.
func (s *idxSet) setAll(n int) bool {
	changed := false
	for i := range s.w {
		full := ^uint64(0)
		if rem := n - i*64; rem < 64 {
			full = 1<<uint(rem) - 1
		}
		if s.w[i] != full {
			changed = true
			s.w[i] = full
		}
	}
	return changed
}

// dporFrame is one DFS stack frame's reduction state; frames are
// preallocated per depth so pointers stay stable across recursion.
type dporFrame struct {
	enabled []Transition
	fps     []footprint
	keys    []uint64
	// asleep marks transitions skipped at this state (sleeping, or
	// covered by a previous expansion during a re-expansion).
	asleep idxSet
	// backtrack is the persistent-set-in-progress: indices to explore.
	// Starts with one seed and grows by race-driven insertion — from
	// descendants of this frame, and from revisited states' summaries.
	backtrack idxSet
	done      idxSet
	// working is the child-sleep source: incoming sleep entries plus
	// every sibling already explored from this frame.
	working    []sleepEntry
	childSleep []sleepEntry
	// execIdx/execFp/execKey identify the transition currently being
	// executed from this frame (-1 between executions); race insertion
	// scans executing frames only.
	execIdx int
	execFp  footprint
	execKey uint64
	// hb is the happens-before ancestry of the executing transition:
	// frame depths whose executed transition precedes it in the
	// dependence order (transitively closed, includes this frame).
	hb idxSet
}

// dporRun is the ReductionDPOR entry point, dispatched by RunContext in
// place of dfs().
func (c *Checker) dporRun(root *System) {
	c.space = newComponentSpace(root)
	c.dporExplored = make(map[canon.Digest]*dporNode)
	c.dporTel = NewDporTelemetry(c.opts.Telemetry)
	if need := c.cfg.maxDepth() + 2; len(c.dporFrames) < need {
		c.dporFrames = make([]dporFrame, need)
	}
	c.frameTop = 0
	c.dporVisit(root, nil)
}

func (c *Checker) globalSummary() dporSummary {
	return dporSummary{residual: c.space.global, hasResidual: true}
}

// dporVisit explores sys (reached at depth len(trace) under the given
// sleep set) and returns the subtree summary for race detection in the
// caller's ancestors.
func (c *Checker) dporVisit(sys *System, sleep []sleepEntry) dporSummary {
	if c.k.Stopped() {
		return c.globalSummary()
	}
	h := sys.Fingerprint()
	depth := len(c.trace)

	if node, ok := c.dporExplored[h]; ok {
		c.k.Revisit()
		if node.inProgress {
			// A cycle back onto the current path: the subtree below is
			// this very exploration, summary unknown — go conservative.
			g := c.globalSummary()
			c.dporInsertSummary(g)
			return g
		}
		// The hash match prunes the stored subtree; its summary stands
		// in for the hidden transitions in race detection.
		c.dporInsertSummary(node.sum)
		diff := slippedKeys(node.sleep, sleep)
		if len(diff) == 0 {
			return node.sum
		}
		if depth >= c.cfg.maxDepth() {
			// Too deep to re-expand the difference; report it as hidden.
			sum := node.sum
			sum.merge(c.globalSummary())
			return sum
		}
		// Transitions asleep at the previous expansion are awake now:
		// re-expand exactly those (everything else is covered), then
		// shrink the signature to what is still jointly asleep.
		c.dporTel.Reexpansion()
		node.inProgress = true
		sum := c.dporExpand(sys, depth, sleep, diff)
		node.sum.merge(sum)
		node.sleep = retainKeys(node.sleep, sleep)
		node.inProgress = false
		return node.sum
	}

	node := &dporNode{inProgress: true, sleep: sleepKeys(sleep)}
	c.dporExplored[h] = node
	c.k.AddState(depth)

	finish := func(sum dporSummary) dporSummary {
		node.sum = sum
		node.inProgress = false
		return sum
	}

	// Quiescence and depth handling mirror dfs(): the checks run against
	// the full enabled set, before any reduction.
	probe := sys.EnabledInto(c.transBuf(depth))
	c.transBufs[depth] = probe[:0]
	if len(probe) == 0 {
		for _, f := range sys.CheckQuiescence() {
			c.k.Record(f, nil, c.trace, true)
			if c.k.Stopped() {
				return finish(c.globalSummary())
			}
		}
		return finish(dporSummary{})
	}
	if depth >= c.cfg.maxDepth() {
		c.k.Truncate()
		// The whole subtree is hidden behind the bound.
		return finish(c.globalSummary())
	}
	return finish(c.dporExpand(sys, depth, sleep, nil))
}

// transBuf returns the per-depth enabled-transition buffer (the same
// reuse discipline as dfs()).
func (c *Checker) transBuf(depth int) []Transition {
	for len(c.transBufs) <= depth {
		c.transBufs = append(c.transBufs, nil)
	}
	return c.transBufs[depth]
}

// dporExpand runs the backtrack-set exploration loop at one state.
// With only == nil this is a first expansion: transitions in sleep start
// asleep and the first awake transition seeds the backtrack set. With
// only != nil it is a re-expansion: exactly the keys in only are awake
// and all of them are seeded; the rest were covered by the previous
// expansion of this state.
func (c *Checker) dporExpand(sys *System, depth int, sleep []sleepEntry, only []uint64) dporSummary {
	enabled := sys.EnabledInto(c.transBuf(depth))
	c.transBufs[depth] = enabled[:0]
	n := len(enabled)

	f := &c.dporFrames[depth]
	c.frameTop = depth + 1
	defer func() { c.frameTop = depth }()

	f.enabled = enabled
	f.fps, c.hostSwBuf = c.space.footprintsInto(sys, enabled, f.fps[:0], c.hostSwBuf)
	f.keys = f.keys[:0]
	for _, t := range enabled {
		f.keys = append(f.keys, dporKeyHash(sys, t))
	}
	f.asleep.reset(n)
	f.backtrack.reset(n)
	f.done.reset(n)
	f.execIdx = -1
	f.working = f.working[:0]

	var sum dporSummary
	if only == nil {
		f.working = append(f.working, sleep...)
		seed := -1
		for i := 0; i < n; i++ {
			if containsKey(sleep, f.keys[i]) {
				f.asleep.set(i)
			} else if seed < 0 {
				seed = i
			}
		}
		if seed < 0 {
			// Everything enabled is asleep: all continuations from here
			// are covered elsewhere.
			for i := 0; i < n; i++ {
				c.dporTel.SleepHit()
			}
			return sum
		}
		f.backtrack.set(seed)
	} else {
		// Re-expansion: wake exactly the slipped keys. Transitions in the
		// current sleep set stay covered; everything else previously
		// explored (or pruned) from this state starts un-seeded but
		// remains insertable — the persistent-set closure below wakes it
		// if a newly-explored transition turns out to be dependent with
		// it. None of them are valid sleep entries for the new children
		// (the previous expansion may have pruned rather than executed
		// them), so they do not join working.
		f.working = append(f.working, sleep...)
		for i := 0; i < n; i++ {
			if keyIn(only, f.keys[i]) {
				f.backtrack.set(i)
			} else if containsKey(sleep, f.keys[i]) {
				f.asleep.set(i)
			}
		}
	}

	for {
		if c.k.Stopped() {
			return c.globalSummary()
		}
		i := nextIndex(&f.backtrack, &f.done)
		if i < 0 {
			break
		}
		f.done.set(i)
		if f.asleep.get(i) {
			continue
		}
		t, fp, key := enabled[i], f.fps[i], f.keys[i]

		// Persistent-set closure at this state: a set containing t must
		// contain every co-enabled transition dependent with it (the
		// one-step sequence from outside the set would interact with t).
		// Classic FG gets this lazily from per-process next-transition
		// race analysis, which has no analogue here — a transition that
		// t disables (say, a sibling send variant consuming the same
		// budget) never executes below t and would otherwise never be
		// inserted. Sleeping transitions stay out: they are covered by
		// an earlier branch.
		for j := 0; j < n; j++ {
			if j != i && !f.asleep.get(j) && Dependent(fp, f.fps[j]) {
				if f.backtrack.set(j) {
					c.dporTel.Backtrack()
				}
			}
		}

		// Classic FG race detection, pre-execution: a backtrack point at
		// the deepest stack frame whose executing transition races with
		// t (dependent and not merely its causal ancestor).
		c.dporRaceInsert(key, fp, footprint{}, true)

		if !c.k.ReserveTransition() {
			return c.globalSummary()
		}
		child := sys.Clone()
		events := child.ApplyInto(t, c.eventBuf)
		c.eventBuf = events
		c.trace = append(c.trace, t)

		violated := false
		for _, fail := range child.CheckEvents(events) {
			c.k.Record(fail, nil, c.trace, false)
			violated = true
		}
		sum.add(sumEntry{key: key, fp: fp, ancExact: true})
		if !violated {
			f.childSleep = f.childSleep[:0]
			for _, e := range f.working {
				if !Dependent(e.fp, fp) {
					f.childSleep = append(f.childSleep, e)
				}
			}
			f.execIdx, f.execFp, f.execKey = i, fp, key
			c.computeHB(f, depth, fp)
			sub := c.dporVisit(child, f.childSleep)
			f.execIdx = -1
			sum.mergeFolded(sub, fp)
		}
		child.Release()
		c.trace = c.trace[:len(c.trace)-1]
		f.working = append(f.working, sleepEntry{key: key, fp: fp})
	}

	if only == nil {
		pruned := 0
		for i := 0; i < n; i++ {
			if f.asleep.get(i) {
				c.dporTel.SleepHit()
			} else if !f.done.get(i) {
				pruned++
			}
		}
		c.dporTel.Pruned(pruned)
	}
	return sum
}

// nextIndex returns the lowest index in backtrack but not in done, or -1.
func nextIndex(backtrack, done *idxSet) int {
	for k, w := range backtrack.w {
		if avail := w &^ done.w[k]; avail != 0 {
			return k*64 + bits.TrailingZeros64(avail)
		}
	}
	return -1
}

// computeHB fills the executing frame's happens-before ancestry: itself
// plus the (transitively-closed) ancestries of every shallower executing
// frame whose transition is dependent with fp.
func (c *Checker) computeHB(f *dporFrame, depth int, fp footprint) {
	f.hb.reset(len(c.dporFrames))
	f.hb.set(depth)
	for e := 0; e < depth; e++ {
		g := &c.dporFrames[e]
		if g.execIdx >= 0 && Dependent(g.execFp, fp) {
			f.hb.unionWith(&g.hb)
		}
	}
}

// keyIndexAt finds a transition key in a frame's enabled set, or -1.
func keyIndexAt(f *dporFrame, key uint64) int {
	for j, k := range f.keys {
		if k == key {
			return j
		}
	}
	return -1
}

// dporRaceInsert handles one pending transition — either the transition
// about to execute at the top of the stack (anc empty, exact), or a
// hidden transition summarized by a revisited state, carrying the union
// footprint of its subtree-local ancestry. It finds the deepest
// executing frame d racing with it and inserts one backtrack point
// there, FG-style:
//
//  1. a happens-before chain representative — a transition executed in
//     (d, top) that is an hb-ancestor of the pending one and enabled at
//     d — when one exists (reversing the race means scheduling the
//     chain's first step before frame d's transition). A path frame is
//     an hb-ancestor when it couples into the pending transition's
//     footprint or its recorded hidden ancestry; the candidates are only
//     certified when that ancestry is exact;
//  2. else the pending transition itself, when enabled at d (always a
//     certified insertion — no ancestry needed);
//  3. else, when the pending transition's whole causal past is visibly
//     on the path (exact empty anc — trivially true for path-pending
//     transitions), frame d's transition provably just enabled the
//     pending one: its enabler would otherwise be a visible
//     hb-ancestor, contradicting 1–2. A pure causal edge admits no
//     reversal, so scan on for a shallower racing frame. A summarized
//     transition with hidden ancestry admits no such proof (an
//     unnameable hidden ancestor could be enabled at d): insert the
//     full enabled set instead.
func (c *Checker) dporRaceInsert(key uint64, fp, anc footprint, ancExact bool) {
	top := c.frameTop
	hbP := &c.hbScratch
	useAnc := !anc.empty()
	if ancExact {
		hbP.reset(len(c.dporFrames))
		for e := 0; e < top; e++ {
			g := &c.dporFrames[e]
			if g.execIdx >= 0 && (Dependent(g.execFp, fp) ||
				(useAnc && Dependent(g.execFp, anc))) {
				hbP.unionWith(&g.hb)
			}
		}
	}
	for d := top - 1; d >= 0; d-- {
		f := &c.dporFrames[d]
		if f.execIdx < 0 || !Dependent(f.execFp, fp) {
			continue
		}
		inserted := false
		if ancExact {
			for e := d + 1; e < top; e++ {
				g := &c.dporFrames[e]
				if g.execIdx < 0 || !hbP.get(e) {
					continue
				}
				if j := keyIndexAt(f, g.execKey); j >= 0 {
					if f.backtrack.set(j) {
						c.dporTel.Backtrack()
					}
					inserted = true
					break
				}
			}
		}
		if !inserted {
			if j := keyIndexAt(f, key); j >= 0 {
				if f.backtrack.set(j) {
					c.dporTel.Backtrack()
				}
			} else if useAnc || !ancExact {
				if f.backtrack.setAll(len(f.enabled)) {
					c.dporTel.Backtrack()
				}
			} else {
				// Proven causal: keep looking shallower.
				continue
			}
		}
		return
	}
}

// dporResidualInsert handles a union-of-footprints residual, for which
// no single insertion point is sound: every dependent executing frame
// gets a full backtrack set.
func (c *Checker) dporResidualInsert(fp footprint) {
	for d := c.frameTop - 1; d >= 0; d-- {
		f := &c.dporFrames[d]
		if f.execIdx < 0 || !Dependent(f.execFp, fp) {
			continue
		}
		if f.backtrack.setAll(len(f.enabled)) {
			c.dporTel.Backtrack()
		}
	}
}

// dporInsertSummary replays a stored subtree summary against the current
// stack: exact entries get precise race insertion, the residual the
// conservative all-frames treatment.
func (c *Checker) dporInsertSummary(sum dporSummary) {
	for _, e := range sum.exact {
		c.dporRaceInsert(e.key, e.fp, e.anc, e.ancExact)
	}
	if sum.hasResidual {
		c.dporResidualInsert(sum.residual)
	}
}

// sleepKeys copies the keys of a sleep set (the stored signature).
func sleepKeys(sleep []sleepEntry) []uint64 {
	if len(sleep) == 0 {
		return nil
	}
	keys := make([]uint64, len(sleep))
	for i, e := range sleep {
		keys[i] = e.key
	}
	return keys
}

// slippedKeys returns the stored-signature keys absent from the current
// sleep set: transitions asleep at the previous expansion, awake now.
func slippedKeys(stored []uint64, sleep []sleepEntry) []uint64 {
	var diff []uint64
	for _, k := range stored {
		if !containsKey(sleep, k) {
			diff = append(diff, k)
		}
	}
	return diff
}

// retainKeys intersects the stored signature with the current sleep set.
func retainKeys(stored []uint64, sleep []sleepEntry) []uint64 {
	kept := stored[:0]
	for _, k := range stored {
		if containsKey(sleep, k) {
			kept = append(kept, k)
		}
	}
	return kept
}

func containsKey(sleep []sleepEntry, key uint64) bool {
	for _, e := range sleep {
		if e.key == key {
			return true
		}
	}
	return false
}

func keyIn(keys []uint64, key uint64) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}
