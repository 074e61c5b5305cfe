package core

import (
	"fmt"
	"sort"

	"github.com/nice-go/nice/internal/canon"
)

// Fingerprint returns the fixed-width 128-bit identity of the state —
// the key of every explored-state set. Instead of re-serializing the
// whole system per state (the paper hashes a full cPickle serialization,
// §6; the seed code walked everything through reflection), it combines
// the cached 64-bit structured hashes the components keep (KeyHash64 on
// switches and hosts, the channel hashes of the controller runtime)
// with dirty-tracking at the mutation sites: a component that did not
// change since the last state costs one word. Each word folds into the
// digest with a single multiply (canon.Hasher.WriteUint64).
//
// With Config.OracleHash set, the fingerprint is instead the hash of the
// full from-scratch serialization (OracleKey). States with equal
// component keys produce equal fingerprints in both modes; the modes
// differ only in their (improbable) hash-collision surfaces — the
// incremental path compresses each component to 64 bits before
// combining, so a cross-component 64-bit collision could merge states
// the oracle distinguishes. The differential tests assert the search
// reports agree in practice; a one-mode-only count divergence therefore
// means either a missing dirty hook (VerifyCaches pinpoints it), a
// structured hash that disagrees with its key (the fuzz tests in
// openflow/keys_fuzz_test.go hold them together) or a component-hash
// collision.
func (s *System) Fingerprint() canon.Digest {
	if s.cfg.OracleHash {
		return canon.Hash128(s.OracleKey())
	}
	// Combining the incremental hashes fills every memoized component
	// hash as a side effect — the same walk warmKeyCaches does.
	defer func() { s.cachesWarm = true }()
	h := canon.NewHasher()
	canonical := s.cfg.canonicalTables()
	hashCounters := s.cfg.HashCounters || s.cfg.NoSwitchReduction
	// The component populations and the property list are fixed for a
	// System's lifetime, so the words need no separators or names.
	for _, sw := range s.switches {
		h.WriteUint64(sw.KeyHash64(canonical, hashCounters))
	}
	h.WriteUint64(s.ctrl.AppKeyHash64())
	h.WriteUint64(s.ctrl.InKeyHash64())
	h.WriteUint64(s.ctrl.OutKeyHash64())
	for _, host := range s.hosts {
		h.WriteUint64(host.KeyHash64())
	}
	// Property keys are memoized with their hashes (props.cachedKey);
	// non-KeyHasher properties fall back to hashing the rendered key.
	for _, p := range s.props {
		if kh, ok := p.(KeyHasher); ok {
			h.WriteUint64(kh.StateKeyHash64())
		} else {
			h.WriteUint64(canon.Hash64String(p.StateKey()))
		}
	}
	if !s.cfg.DisableSE {
		app := s.ctrl.AppKeyDigest()
		for _, host := range s.hosts {
			if pkts, ok := s.caches.getPackets(packetsKeyWith(host, app)); ok {
				h.WriteSep('p')
				h.WriteUint64(uint64(host.ID))
				h.WriteUint64(uint64(len(pkts)))
			}
		}
		for _, sw := range s.swIDs {
			if vs, ok := s.caches.getStats(statsCacheKey{sw: sw, app: app}); ok {
				h.WriteSep('s')
				h.WriteUint64(uint64(sw))
				h.WriteUint64(uint64(len(vs)))
			}
		}
	}
	h.WriteSep('g')
	h.WriteUint64(uint64(len(s.lastGroup)))
	h.WriteString(s.lastGroup)
	writeGroupCounts(&h, s.groupCounts)
	for _, n := range [...]int{s.faults.drops, s.faults.dups, s.faults.reorders,
		s.faults.linkFails, s.faults.switchFails} {
		h.WriteUint64(uint64(n))
	}
	return h.Sum()
}

// writeGroupCounts feeds the FLOW-IR instance counters into the hasher
// in sorted key order (deterministic, reflection-free).
func writeGroupCounts(h *canon.Hasher, counts map[string]int) {
	if len(counts) == 0 {
		h.WriteString("{}")
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h.WriteSep('{')
	for i, k := range keys {
		if i > 0 {
			h.WriteSep(' ')
		}
		h.WriteString(k)
		h.WriteSep(':')
		h.WriteInt(counts[k])
	}
	h.WriteSep('}')
}

// VerifyCaches cross-checks every component's cached hash against a
// from-scratch structured hash — switches (with their flow tables),
// hosts, the controller's application key and channels — and every
// memoized property key against a fresh render, returning an error
// naming the first divergence. Stress tests walk transition sequences
// and call it after every step; a failure means a mutation path is
// missing its dirty-tracking hook.
func (s *System) VerifyCaches() error {
	canonical := s.cfg.canonicalTables()
	hashCounters := s.cfg.HashCounters || s.cfg.NoSwitchReduction
	for _, sw := range s.switches {
		if got, want := sw.KeyHash64(canonical, hashCounters), sw.FreshKeyHash64(canonical, hashCounters); got != want {
			return fmt.Errorf("core: stale hash %016x (fresh %016x) for switch %s", got, want,
				sw.RenderStateKey(canonical, hashCounters))
		}
	}
	app, in, out := s.ctrl.FreshKeyHashes()
	if got := s.ctrl.AppKeyHash64(); got != app {
		return fmt.Errorf("core: stale application key hash %016x (fresh %016x): cached %q, fresh %q",
			got, app, s.ctrl.AppKey(), s.ctrl.App.StateKey())
	}
	if got := s.ctrl.InKeyHash64(); got != in {
		return fmt.Errorf("core: stale switch-to-controller channel hash %016x (fresh %016x): %s",
			got, in, s.ctrl.RenderStateKey())
	}
	if got := s.ctrl.OutKeyHash64(); got != out {
		return fmt.Errorf("core: stale controller-to-switch channel hash %016x (fresh %016x): %s",
			got, out, s.ctrl.RenderStateKey())
	}
	for _, h := range s.hosts {
		if got, want := h.KeyHash64(), h.FreshKeyHash64(); got != want {
			return fmt.Errorf("core: stale hash %016x (fresh %016x) for host %s", got, want, h.RenderStateKey())
		}
	}
	for _, p := range s.props {
		cached, fresh := propKeyFor(p, false), propKeyFor(p, true)
		if cached != fresh {
			return fmt.Errorf("core: stale key for property %s: cached %q, fresh %q", p.Name(), cached, fresh)
		}
		if kh, ok := p.(KeyHasher); ok && kh.StateKeyHash64() != canon.Hash64String(fresh) {
			return fmt.Errorf("core: stale key hash for property %s (key %q)", p.Name(), fresh)
		}
	}
	return nil
}
