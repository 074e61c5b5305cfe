// Differential parity for the unified entry point: on every registered
// Table 2 scenario, under every Table 2 strategy column, nice.Run must
// reproduce the legacy entry points' exact unique-state and transition
// counts and violated-property sets once the discover caches are warm
// (warm caches pin down state identity, making counts
// schedule-independent — the same setting internal/search's
// differential tests use).
package nice_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/scenarios"
)

func violatedSet(r *nice.Report) map[string]bool {
	set := make(map[string]bool)
	for _, v := range r.Violations {
		set[v.Property] = true
	}
	return set
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRunRegistryMatrixParity sweeps the registry's Table 2 scenarios ×
// strategy columns: Run on the sequential engine must match the legacy
// sequential checker exactly, Run on the parallel engine must match the
// legacy parallel engine exactly, and the found/missed outcome must
// match the registry's expected-violation matrix.
func TestRunRegistryMatrixParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry × strategy × engine sweep is slow")
	}
	ctx := context.Background()
	for _, sc := range scenarios.Table2() {
		for _, strat := range scenarios.Strategies {
			sc, strat := sc, strat
			t.Run(sc.Name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				build := func() *nice.Config {
					cfg := sc.Apply(sc.Config(0), strat)
					cfg.StopAtFirstViolation = false
					return cfg
				}
				cc := nice.NewCaches()
				core.NewCheckerWith(build(), cc).Run() // warm the discover caches

				legacySeq := core.NewCheckerWith(build(), cc).Run()
				runSeq := nice.Run(ctx, build(), nice.WithCaches(cc))
				if runSeq.UniqueStates != legacySeq.UniqueStates ||
					runSeq.Transitions != legacySeq.Transitions {
					t.Errorf("Run(seq) states/trans %d/%d != legacy checker %d/%d",
						runSeq.UniqueStates, runSeq.Transitions,
						legacySeq.UniqueStates, legacySeq.Transitions)
				}
				if !sameSet(violatedSet(runSeq), violatedSet(legacySeq)) {
					t.Errorf("Run(seq) violations %v != legacy %v",
						violatedSet(runSeq), violatedSet(legacySeq))
				}

				legacyPar := search.Parallel().Search(ctx, build(),
					core.EngineOptions{Workers: 4, Caches: cc})
				runPar := nice.Run(ctx, build(), nice.WithWorkers(4), nice.WithCaches(cc))
				if runPar.UniqueStates != legacyPar.UniqueStates ||
					runPar.Transitions != legacyPar.Transitions {
					t.Errorf("Run(parallel) states/trans %d/%d != legacy engine %d/%d",
						runPar.UniqueStates, runPar.Transitions,
						legacyPar.UniqueStates, legacyPar.Transitions)
				}
				if runPar.UniqueStates != legacySeq.UniqueStates ||
					runPar.Transitions != legacySeq.Transitions {
					t.Errorf("Run(parallel) states/trans %d/%d != sequential %d/%d (warm caches)",
						runPar.UniqueStates, runPar.Transitions,
						legacySeq.UniqueStates, legacySeq.Transitions)
				}
				if !sameSet(violatedSet(runPar), violatedSet(legacySeq)) {
					t.Errorf("Run(parallel) violations %v != sequential %v",
						violatedSet(runPar), violatedSet(legacySeq))
				}

				// The full search finds the bug's property exactly when
				// the registry's Table 2 matrix says the strategy does
				// not miss it.
				found := violatedSet(runSeq)[sc.ExpectedProperty]
				if wantMiss := sc.Misses[strat]; found == wantMiss {
					t.Errorf("found=%v under %s, registry matrix expects miss=%v",
						found, strat, wantMiss)
				}
			})
		}
	}
}

// TestRunSwarmWarmParity: with warm shared caches, Run's swarm matches
// the legacy swarm engine walk for walk on every Table 2 scenario.
func TestRunSwarmWarmParity(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm sweep is slow")
	}
	ctx := context.Background()
	for _, sc := range scenarios.Table2() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			build := func() *nice.Config {
				cfg := sc.Config(0)
				cfg.StopAtFirstViolation = false
				return cfg
			}
			cc := nice.NewCaches()
			core.NewCheckerWith(build(), cc).Run() // warm the discover caches

			legacy := search.SwarmEngine().Search(ctx, build(), core.EngineOptions{
				Workers: 2, Seed: 11, Walks: 30, Steps: 60, Caches: cc,
			})
			got := nice.Run(ctx, build(),
				nice.WithWalks(11, 30, 60), nice.WithWorkers(2), nice.WithCaches(cc))
			if got.Strategy != "swarm" {
				t.Fatalf("engine = %q, want swarm", got.Strategy)
			}
			if got.Transitions != legacy.Transitions || got.UniqueStates != legacy.UniqueStates {
				t.Errorf("Run(swarm) trans/states %d/%d != legacy swarm %d/%d",
					got.Transitions, got.UniqueStates, legacy.Transitions, legacy.UniqueStates)
			}
			if !sameSet(violatedSet(got), violatedSet(legacy)) {
				t.Errorf("Run(swarm) violations %v != legacy %v",
					violatedSet(got), violatedSet(legacy))
			}
		})
	}
}
