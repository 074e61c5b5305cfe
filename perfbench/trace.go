package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span names. A span is one timed call from the benchmark into a
// layer's exported API, or one of the benchmark's own frames (a whole
// search, one DFS expansion, one service job) that encloses such calls.
const (
	spSearch uint8 = iota // one search: the root of a trace
	spExpand              // one DFS frame of the mirror (a state visit)
	spFingerprint
	spSeen
	spEnabled
	spClone
	spApplyOpenflow
	spApplyController
	spApplyHosts
	spApplyFaults
	spDiscover
	spCheckEvents
	spCheckQuiescence
	spRelease
	spParallel  // one parallel Engine.Search call (par-engines)
	spConcolic  // one concolic Engine.Search call (par-engines)
	spJob       // one service job, POST until the done event
	spSubmit    // POST sent until JobStatus.QueuedAt
	spQueueWait // JobStatus.QueuedAt until StartedAt
	spRun       // JobStatus.StartedAt until EndedAt
	spDeliver   // JobStatus.EndedAt until the done event is received
	numSpanNames
)

// spanNames labels each span name with the layer it times; the
// benchmark's own frames are "bench.*".
var spanNames = [numSpanNames]string{
	spSearch:          "bench.search",
	spExpand:          "bench.dfs_loop",
	spFingerprint:     "core.fingerprint",
	spSeen:            "core.seen_set",
	spEnabled:         "core.enabled",
	spClone:           "cow.clone",
	spApplyOpenflow:   "openflow.apply",
	spApplyController: "controller.apply",
	spApplyHosts:      "hosts.apply",
	spApplyFaults:     "faults.apply",
	spDiscover:        "sym.discover",
	spCheckEvents:     "props.check_events",
	spCheckQuiescence: "props.check_quiescence",
	spRelease:         "cow.release",
	spParallel:        "search.parallel",
	spConcolic:        "concolic.loop",
	spJob:             "bench.job",
	spSubmit:          "service.submit",
	spQueueWait:       "service.queue_wait",
	spRun:             "service.run",
	spDeliver:         "service.deliver",
}

// span is one recorded interval. Spans stay in memory until the traced
// pass ends, then aggregate into a layer table.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	trace      uint16
	name       uint8
}

// tracer records spans for one traced pass. It is not safe for
// concurrent use; concurrent clients merge their spans afterwards.
type tracer struct {
	epoch time.Time
	spans []span
	trace uint16
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens a new trace (one per search or job) and returns its span.
func (t *tracer) root(name uint8) int32 {
	t.trace++
	return t.open(name, -1)
}

func (t *tracer) open(name uint8, parent int32) int32 {
	t.spans = append(t.spans, span{start: t.now(), end: -1, parent: parent, trace: t.trace, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) { t.spans[i].end = t.now() }

// leaf records a call that started at start and ends now.
func (t *tracer) leaf(name uint8, parent int32, start int64) {
	t.spans = append(t.spans, span{start: start, end: t.now(), parent: parent, trace: t.trace, name: name})
}

// at records an interval measured elsewhere (client or server
// timestamps mapped onto the tracer's clock); parent -1 opens a trace.
func (t *tracer) at(name uint8, parent int32, start, end time.Time) int32 {
	if parent < 0 {
		t.trace++
	}
	t.spans = append(t.spans, span{start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)),
		parent: parent, trace: t.trace, name: name})
	return int32(len(t.spans) - 1)
}

// layerTable is the per-layer aggregate of a traced pass: calls and
// self time per span name, and the traced wall time (sum of roots).
type layerTable struct {
	calls  [numSpanNames]int64
	self   [numSpanNames]int64
	wall   int64
	traces int
}

func (t *tracer) table() *layerTable {
	lt := &layerTable{}
	for _, s := range t.spans {
		d := s.end - s.start
		lt.calls[s.name]++
		lt.self[s.name] += d
		if s.parent >= 0 {
			lt.self[t.spans[s.parent].name] -= d
		} else {
			lt.wall += d
			lt.traces++
		}
	}
	return lt
}

func (lt *layerTable) meanNS(names ...uint8) float64 {
	var t, c int64
	for _, n := range names {
		t += lt.self[n]
		c += lt.calls[n]
	}
	return ratio(float64(t), float64(c))
}

func (lt *layerTable) share(names ...uint8) float64 {
	var t int64
	for _, n := range names {
		t += lt.self[n]
	}
	return ratio(float64(t), float64(lt.wall))
}

// print writes the table sorted by self time: calls, self time, mean
// self time per call and share of the traced wall time.
func (lt *layerTable) print(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s: %d traces, traced wall %.3f s\n", title, lt.traces, float64(lt.wall)/1e9)
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %7s\n", "layer", "calls", "self_ms", "self_ns/call", "share")
	idx := make([]int, 0, numSpanNames)
	for i := range lt.calls {
		if lt.calls[i] > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return lt.self[idx[a]] > lt.self[idx[b]] })
	var sum int64
	for _, i := range idx {
		sum += lt.self[i]
		fmt.Fprintf(w, "  %-24s %10d %12.3f %12.0f %6.2f%%\n", spanNames[i], lt.calls[i],
			float64(lt.self[i])/1e6, ratio(float64(lt.self[i]), float64(lt.calls[i])),
			100*ratio(float64(lt.self[i]), float64(lt.wall)))
	}
	fmt.Fprintf(w, "  %-24s %10s %12.3f %12s %6.2f%%\n", "sum of self times", "",
		float64(sum)/1e6, "", 100*ratio(float64(sum), float64(lt.wall)))
}
