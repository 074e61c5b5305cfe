package search

import (
	"context"
	"math/rand"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// SwarmEngine returns the parallel seeded-swarm engine, which scales the
// paper's random-walk mode (§1.3) across a worker pool:
// EngineOptions.Walks independent walks of at most Steps transitions,
// distributed round-robin over Workers. Walk i is always driven by
// rand seed Seed+i, so when state identity is schedule-independent
// (symbolic execution off, or discover caches warmed) the set of walks
// — and the violations reachable by any of them — is identical for
// every worker count; only wall-clock time changes. Cold SE-enabled
// walks share the discover caches, whose fill order shifts each walk's
// enabled-transition sets, so their trajectories can vary with
// scheduling. The workers share the striped seen-set (UniqueStates
// counts distinct hashes across the whole swarm) and the kernel.
func SwarmEngine() core.Engine { return swarmEngine{} }

type swarmEngine struct{}

func (swarmEngine) Name() string { return "swarm" }

func (swarmEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	workers := eo.WorkerCount()
	walks, steps := eo.WalkCount(), eo.StepBound()
	seen := newSeenSet(shards)
	k := core.StartKernel(ctx, "swarm", cfg, eo.CacheSet(), eo, core.KernelHooks{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < walks && !k.Stopped(); i += workers {
				core.Walk(k, rand.New(rand.NewSource(eo.Seed+int64(i))), steps, seen.Add)
			}
		}(w)
	}
	wg.Wait()
	if tel := k.Telemetry(); tel != nil {
		tel.SetShardOccupancy(seen.occupancy())
	}
	return k.Finish()
}
