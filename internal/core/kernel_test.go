package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/nice-go/nice/openflow"
)

func startTestKernel(ctx context.Context, cfg *Config, opts EngineOptions) *Kernel {
	return StartKernel(ctx, "test", cfg, NewCaches(), opts, KernelHooks{})
}

// TestKernelStopReasons: aborting with each of the seven reasons yields
// that reason, Complete is exactly !Partial(), and the first reason
// recorded wins over later ones.
func TestKernelStopReasons(t *testing.T) {
	for _, r := range stopReasons {
		k := startTestKernel(context.Background(), &Config{}, EngineOptions{})
		k.Abort(r)
		rep := k.Finish()
		if rep.StopReason != r || k.Stopped() != (r != StopNone) {
			t.Errorf("Abort(%q): StopReason = %q, stopped %v", r, rep.StopReason, k.Stopped())
		}
		if rep.Complete != !rep.StopReason.Partial() {
			t.Errorf("Abort(%q): Complete = %v with StopReason %q", r, rep.Complete, rep.StopReason)
		}
	}
	k := startTestKernel(context.Background(), &Config{}, EngineOptions{})
	k.Abort(StopViolation)
	k.Abort(StopCanceled)
	if rep := k.Finish(); rep.StopReason != StopViolation || !rep.Complete {
		t.Errorf("first reason lost: StopReason = %q, complete %v", rep.StopReason, rep.Complete)
	}
}

// TestKernelReserveTransitionExact: racing workers never execute more
// transitions than the budget, and exhausting it stops the search.
func TestKernelReserveTransitionExact(t *testing.T) {
	k := startTestKernel(context.Background(), &Config{MaxTransitions: 1000}, EngineOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k.ReserveTransition() {
			}
		}()
	}
	wg.Wait()
	rep := k.Finish()
	if rep.Transitions != 1000 || rep.StopReason != StopMaxTransitions || rep.Complete {
		t.Errorf("transitions=%d reason=%q complete=%v; want 1000, max-transitions, partial",
			rep.Transitions, rep.StopReason, rep.Complete)
	}
}

// TestKernelMaxStates: reaching the state budget stops the search at
// exactly that many states.
func TestKernelMaxStates(t *testing.T) {
	k := startTestKernel(context.Background(), &Config{}, EngineOptions{MaxStates: 3})
	for i := 0; !k.Stopped(); i++ {
		k.AddState(i)
	}
	rep := k.Finish()
	if rep.UniqueStates != 3 || rep.StopReason != StopMaxStates {
		t.Errorf("states=%d reason=%q; want 3, max-states", rep.UniqueStates, rep.StopReason)
	}
}

// TestKernelContext: a context done before the search starts stops it
// at once; one that expires mid-search is caught by the watcher.
func TestKernelContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := startTestKernel(ctx, &Config{}, EngineOptions{})
	if !k.Stopped() || k.ReserveTransition() {
		t.Error("a canceled context must stop the search before it begins")
	}
	if rep := k.Finish(); rep.StopReason != StopCanceled {
		t.Errorf("StopReason = %q, want canceled", rep.StopReason)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	stopped := make(chan struct{})
	k = StartKernel(ctx, "test", &Config{}, NewCaches(), EngineOptions{},
		KernelHooks{OnStop: func() { close(stopped) }})
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the watcher never stopped the search")
	}
	if rep := k.Finish(); rep.StopReason != StopDeadline || rep.Complete {
		t.Errorf("StopReason = %q complete=%v, want deadline, partial", rep.StopReason, rep.Complete)
	}
}

// TestKernelNoGoroutine: with no Observer, no telemetry and a context
// that cannot be canceled, the kernel starts no goroutine.
func TestKernelNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	k := startTestKernel(context.Background(), &Config{}, EngineOptions{})
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after StartKernel, %d before", n, before)
	}
	k.Finish()
}

type recordingObserver struct {
	mu         sync.Mutex
	violations []Violation
	progress   []Progress
}

func (o *recordingObserver) OnViolation(v Violation) {
	o.mu.Lock()
	o.violations = append(o.violations, v)
	o.mu.Unlock()
}

func (o *recordingObserver) OnProgress(p Progress) {
	o.mu.Lock()
	o.progress = append(o.progress, p)
	o.mu.Unlock()
}

// TestKernelRecord: violations dedupe by property and error, the
// shortest trace wins with ties going to the smaller key sequence
// whatever the arrival order, the report is sorted, and only a new key
// streams to the Observer.
func TestKernelRecord(t *testing.T) {
	disc := func(h int) Transition { return Transition{Kind: THostDiscover, Host: openflow.HostID(h)} }
	long := []Transition{disc(1), disc(2), disc(3)}
	tieHigh := []Transition{disc(1), disc(5)}
	tieLow := []Transition{disc(1), disc(4)}
	fail := func(p, e string) PropertyFailure { return PropertyFailure{Property: p, Err: errors.New(e)} }

	obs := &recordingObserver{}
	k := startTestKernel(context.Background(), &Config{}, EngineOptions{Observer: obs})
	k.Record(fail("Q", "b"), nil, long, false)
	k.Record(fail("Q", "b"), nil, tieHigh, false)
	k.Record(fail("Q", "b"), (*PathNode)(nil).Child(disc(1)), []Transition{disc(4)}, false)
	k.Record(fail("Q", "b"), nil, long, false) // longer: dismissed
	borrowed := append([]Transition(nil), long...)
	k.Record(fail("Q", "a"), nil, borrowed, true)
	k.Record(fail("P", "z"), nil, nil, true)
	borrowed[0] = disc(9) // the kernel must have copied the borrowed tail
	rep := k.Finish()

	want := []struct {
		key   string
		trace []Transition
	}{{"P|z", []Transition{}}, {"Q|a", long}, {"Q|b", tieLow}}
	if len(rep.Violations) != len(want) {
		t.Fatalf("%d violations, want %d", len(rep.Violations), len(want))
	}
	for i, w := range want {
		v := rep.Violations[i]
		if key := v.Property + "|" + v.Err.Error(); key != w.key {
			t.Errorf("violation %d is %s, want %s", i, key, w.key)
		}
		if TraceFingerprint(v.Trace) != TraceFingerprint(w.trace) {
			t.Errorf("%s kept trace %v, want %v", w.key, v.Trace, w.trace)
		}
	}
	if !rep.Violations[1].Quiescence || rep.Violations[2].Quiescence {
		t.Error("Quiescence not carried with the kept trace")
	}
	if len(obs.violations) != 3 {
		t.Errorf("streamed %d violations, want one per key (3)", len(obs.violations))
	}

	// Arrival order does not change the kept trace.
	k = startTestKernel(context.Background(), &Config{}, EngineOptions{})
	k.Record(fail("Q", "b"), nil, tieLow, false)
	k.Record(fail("Q", "b"), nil, []Transition{disc(1), disc(5)}, false)
	if got := k.Finish().Violations[0].Trace; TraceFingerprint(got) != TraceFingerprint(tieLow) {
		t.Errorf("kept %v, want %v", got, tieLow)
	}
}

// TestKernelRecordConcurrent: workers racing to record candidates for
// the same keys leave the same kept traces as any sequential order.
func TestKernelRecordConcurrent(t *testing.T) {
	obs := &recordingObserver{}
	k := startTestKernel(context.Background(), &Config{}, EngineOptions{Observer: obs})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				trace := make([]Transition, 1+(w+i)%4)
				for j := range trace {
					trace[j] = Transition{Kind: THostDiscover, Host: openflow.HostID((w*7 + i + j) % 5)}
				}
				err := errors.New([]string{"a", "b", "c"}[i%3])
				k.Record(PropertyFailure{Property: "P", Err: err}, nil, trace, false)
			}
		}(w)
	}
	wg.Wait()
	rep := k.Finish()
	if len(rep.Violations) != 3 || len(obs.violations) != 3 {
		t.Fatalf("%d violations, %d streamed; want 3 each", len(rep.Violations), len(obs.violations))
	}
	for _, v := range rep.Violations {
		if len(v.Trace) != 1 || v.Trace[0].Host != 0 {
			t.Errorf("%s kept %v, want the one-step trace through host 0", v.Err, v.Trace)
		}
	}
}

// TestKernelStopAtFirstViolation: under StopAtFirstViolation every
// recorded failure, duplicate key or not, stops a complete search.
func TestKernelStopAtFirstViolation(t *testing.T) {
	k := startTestKernel(context.Background(), &Config{StopAtFirstViolation: true}, EngineOptions{})
	k.Record(PropertyFailure{Property: "P", Err: errors.New("e")}, nil, nil, false)
	rep := k.Finish()
	if !k.Stopped() || rep.StopReason != StopViolation || !rep.Complete {
		t.Errorf("stopped=%v reason=%q complete=%v", k.Stopped(), rep.StopReason, rep.Complete)
	}
}

// TestKernelProgress: the ticker streams snapshots while the search
// runs, the Final snapshot is delivered exactly once and last, and it
// carries the report's counters.
func TestKernelProgress(t *testing.T) {
	obs := &recordingObserver{}
	k := StartKernel(context.Background(), "test", &Config{}, NewCaches(),
		EngineOptions{Observer: obs, ProgressEvery: time.Millisecond},
		KernelHooks{Frontier: func() int64 { return 7 }})
	for i := 0; i < 5; i++ {
		k.ReserveTransition()
		k.AddState(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		obs.mu.Lock()
		n := len(obs.progress)
		obs.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	k.Revisit()
	k.Truncate()
	rep := k.Finish()

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.progress) < 2 {
		t.Fatalf("%d snapshots, want periodic ones before the final", len(obs.progress))
	}
	for i, p := range obs.progress {
		if p.Final != (i == len(obs.progress)-1) {
			t.Errorf("snapshot %d of %d has Final=%v", i+1, len(obs.progress), p.Final)
		}
	}
	last := obs.progress[len(obs.progress)-1]
	if last.Transitions != rep.Transitions || last.UniqueStates != rep.UniqueStates ||
		last.Revisits != rep.Revisits || last.Truncated != rep.Truncated {
		t.Errorf("final snapshot %+v, report %+v", last, rep)
	}
	if last.Depth != 4 || last.Frontier != 7 || last.PeakHeapInUse == 0 || last.Strategy != "test" {
		t.Errorf("final snapshot depth=%d frontier=%d heap=%d strategy=%q",
			last.Depth, last.Frontier, last.PeakHeapInUse, last.Strategy)
	}
}
