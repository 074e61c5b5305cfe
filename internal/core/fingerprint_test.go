package core

import (
	"strconv"
	"strings"
	"testing"
)

// staleProp simulates the bug class the FreshKeyer oracle hook exists
// to catch: a memoizing property that forgets to invalidate its cached
// StateKey when its state mutates. StateKey keeps returning the stale
// memo; RenderStateKey reports the live state.
type staleProp struct {
	events int
	memo   string
	valid  bool
}

func (p *staleProp) Name() string { return "stale" }
func (p *staleProp) Clone() Property {
	c := *p
	return &c
}
func (p *staleProp) OnEvents(_ *System, events []Event) error {
	p.events += len(events) // mutation WITHOUT invalidating the memo
	return nil
}
func (p *staleProp) AtQuiescence(*System) error { return nil }
func (p *staleProp) StateKey() string {
	if !p.valid {
		p.memo = p.RenderStateKey()
		p.valid = true
	}
	return p.memo
}
func (p *staleProp) RenderStateKey() string { return strconv.Itoa(p.events) }

// TestVerifyCachesCatchesStalePropertyMemo asserts the oracle path
// bypasses property memos: a property whose cached key goes stale must
// surface as a VerifyCaches divergence rather than poisoning the
// incremental and oracle hashes identically.
func TestVerifyCachesCatchesStalePropertyMemo(t *testing.T) {
	cfg := hubConfig(1)
	cfg.Properties = []Property{&staleProp{}}
	sys := NewSystem(cfg)
	if err := sys.VerifyCaches(); err != nil {
		t.Fatalf("initial state should verify: %v", err)
	}
	// Prime the memo, then mutate the property the way the checker does
	// (OnEvents after a transition) without invalidating.
	sys.Fingerprint()
	enabled := sys.Enabled()
	if len(enabled) == 0 {
		t.Fatal("no enabled transitions")
	}
	events := sys.Apply(enabled[0])
	for _, p := range sys.Properties() {
		if err := p.OnEvents(sys, events); err != nil {
			t.Fatal(err)
		}
	}
	if len(events) == 0 {
		t.Fatal("transition produced no events; stale memo not exercised")
	}
	if err := sys.VerifyCaches(); err == nil {
		t.Fatal("VerifyCaches missed a stale property memo — oracle is reading the memoized key")
	}
}

// TestVerifyCachesCatchesStaleSwitchHash flips Switch.Alive directly —
// the exported-field mutation whose contract demands MarkDirty — and
// requires VerifyCaches to report the switch's cached structured hash
// as stale against a from-scratch one.
func TestVerifyCachesCatchesStaleSwitchHash(t *testing.T) {
	sys := NewSystem(hubConfig(1))
	before := sys.Fingerprint() // fills every cached component hash
	if err := sys.VerifyCaches(); err != nil {
		t.Fatalf("initial state should verify: %v", err)
	}
	sw := sys.Switch(sys.SwitchIDs()[0])
	sw.Alive = !sw.Alive // mutation WITHOUT MarkDirty
	err := sys.VerifyCaches()
	if err == nil {
		t.Fatal("VerifyCaches missed a switch mutated without MarkDirty")
	}
	if !strings.Contains(err.Error(), "switch") {
		t.Errorf("divergence report does not name the switch: %v", err)
	}
	if sys.Fingerprint() != before {
		t.Fatal("the stale cached hash should still feed Fingerprint")
	}
	sw.MarkDirty()
	if err := sys.VerifyCaches(); err != nil {
		t.Fatalf("after MarkDirty: %v", err)
	}
	if sys.Fingerprint() == before {
		t.Error("Fingerprint ignores Alive")
	}
}
