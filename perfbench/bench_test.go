package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/scenarios"
)

// TestMirrorMatchesChecker pins the mirror DFS to core.Checker on a
// small input: same unique states, transitions, revisits, truncations
// and violation set.
func TestMirrorMatchesChecker(t *testing.T) {
	cfg := scenarios.MustLookup("pingpong-se").Config(2)
	want := countsOf(checkerRun(cfg))
	tp := newTracePass()
	m := tp.mirror(input{name: "pingpong-se/2"}, scenarios.MustLookup("pingpong-se").Config(2))
	if !m.counts.equal(want) {
		t.Fatalf("mirror %+v, checker %+v", m.counts, want)
	}
	if m.counts.unique != 2432 || m.counts.transitions != 4042 {
		t.Errorf("pingpong-se/2: %d states, %d transitions; want 2432 and 4042",
			m.counts.unique, m.counts.transitions)
	}
	// The span tree accounts for the whole traced wall time.
	lt := tp.tr.table()
	var sum int64
	for _, s := range lt.self {
		sum += s
	}
	if sum != lt.wall || lt.calls[spFingerprint] != m.counts.unique+m.counts.revisits {
		t.Errorf("self times sum to %d of %d ns; %d fingerprint calls", sum, lt.wall, lt.calls[spFingerprint])
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestPrintedMetricsMatchBenchmarkJSON runs one pass of bug-hunt in
// each mode and checks that the printed metrics are exactly those
// BENCHMARK.json declares, with the same units.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		declared := bj.EndToEnd
		defs := endToEnd
		if traced {
			declared, defs = bj.PerLayer, perLayer
		}
		res, err := run(bugHuntWorkload(), time.Now(), rand.New(rand.NewSource(1)), 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced=%v: correct=%v failed=%d", traced, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(declared) || len(defs) != len(declared) {
			t.Errorf("traced=%v: printed %d metrics, catalogue %d, BENCHMARK.json %d",
				traced, len(res.Metrics), len(defs), len(declared))
		}
		for i, d := range declared {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: %s printed %+v (present %v), declared unit %s", traced, d.Name, m, ok, d.Unit)
			}
			if i < len(defs) && (defs[i].name != d.Name || defs[i].better != d.Better) {
				t.Errorf("catalogue entry %d is %s/%s, BENCHMARK.json has %s/%s",
					i, defs[i].name, defs[i].better, d.Name, d.Better)
			}
		}
	}
}

// TestWrongVerdictIsFailure feeds deliberately wrong known answers and
// checks that they are counted as failed operations, not passes.
func TestWrongVerdictIsFailure(t *testing.T) {
	wrong := func() []input {
		in := table2Cells()[0] // bug-i/PKT-SEQ finds its bug
		in.expected = ""
		return []input{in}
	}
	for _, traced := range []bool{false, true} {
		res, err := run(dfsWorkload("wrong", wrong), time.Now(), rand.New(rand.NewSource(1)), 0, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d; want every operation failed",
				traced, res.Correct, res.Attempted, res.Failed)
		}
	}

	cell := serviceCells()[0]
	done := service.Event{Type: "done", State: service.StateDone,
		Result: &service.JobResult{Complete: true}}
	if err := cell.check(done); !errors.Is(err, errVerdict) {
		t.Errorf("clean job for a cell that must find %s: err %v", cell.expected, err)
	}
	done.Result.Violations = []service.WireViolation{{Property: cell.expected}}
	if err := cell.check(done); !errors.Is(err, errVerdict) {
		t.Errorf("violation without a trace artifact: err %v", err)
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
