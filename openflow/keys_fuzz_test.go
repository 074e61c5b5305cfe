package openflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/canon"
)

// This file fuzzes the hand-written canonical encoders of keys.go
// against two references: the historical fmt-based renderings they
// replaced (byte-for-byte equality) and the reflective canon.String walk
// (equality semantics: two values render equal iff they are equal). It
// also holds the structured hashes of hash.go to the keys: two values
// hash equal exactly when their keys are equal.
// Run with `go test -fuzz FuzzHeaderKey ./openflow` (etc.); the
// seed corpus below runs on every plain `go test`.

// byteFeed deterministically derives values from fuzz input.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return b
}

func (f *byteFeed) u64(bytes int) uint64 {
	var v uint64
	for i := 0; i < bytes; i++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func headerFrom(f *byteFeed) Header {
	h := Header{
		EthSrc:   EthAddr(f.u64(6)),
		EthDst:   EthAddr(f.u64(6)),
		EthType:  uint16(f.u64(2)),
		VLAN:     uint16(f.u64(2)),
		VLANPCP:  f.next(),
		IPSrc:    IPAddr(uint32(f.u64(4))),
		IPDst:    IPAddr(uint32(f.u64(4))),
		IPProto:  f.next(),
		IPTOS:    f.next(),
		TPSrc:    uint16(f.u64(2)),
		TPDst:    uint16(f.u64(2)),
		TCPFlags: f.next(),
		TCPSeq:   uint32(f.u64(4)),
		ArpOp:    f.next(),
	}
	if f.next()&1 == 1 {
		h.Payload = fmt.Sprintf("p%d", f.next())
	}
	return h
}

// perturbHeader returns h with one feed-chosen field set to a small
// feed-chosen value, which often equals the old one.
func perturbHeader(h Header, f *byteFeed) Header {
	v := f.next() % 4
	switch f.next() % 16 {
	case 0:
		h.EthSrc = EthAddr(v)
	case 1:
		h.EthDst = EthAddr(v)
	case 2:
		h.EthType = uint16(v)
	case 3:
		h.VLAN = uint16(v)
	case 4:
		h.VLANPCP = v
	case 5:
		h.IPSrc = IPAddr(v)
	case 6:
		h.IPDst = IPAddr(v)
	case 7:
		h.IPProto = v
	case 8:
		h.IPTOS = v
	case 9:
		h.TPSrc = uint16(v)
	case 10:
		h.TPDst = uint16(v)
	case 11:
		h.TCPFlags = v
	case 12:
		h.TCPSeq = uint32(v)
	case 13:
		h.ArpOp = v
	case 14:
		h.Payload = fmt.Sprintf("p%d", v)
	}
	return h
}

// requireHashIff fails unless keys a and b are equal exactly when
// hashes ha and hb are.
func requireHashIff(t *testing.T, what, a, b string, ha, hb uint64) {
	t.Helper()
	if (a == b) != (ha == hb) {
		t.Fatalf("%s: keys equal %v but hashes equal %v:\n%q\n%q", what, a == b, ha == hb, a, b)
	}
}

// referenceHeaderKey is the fmt-based rendering Header.Key historically
// used.
func referenceHeaderKey(h Header) string {
	return fmt.Sprintf("%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%s",
		uint64(h.EthSrc), uint64(h.EthDst), h.EthType, h.VLAN, h.VLANPCP,
		uint32(h.IPSrc), uint32(h.IPDst), h.IPProto, h.IPTOS,
		h.TPSrc, h.TPDst, h.TCPFlags, h.TCPSeq, h.ArpOp, h.Payload)
}

func FuzzHeaderKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff deadbeef payload bytes"))
	f.Fuzz(checkHeaderKey)
}

func checkHeaderKey(t *testing.T, data []byte) {
	feed := &byteFeed{data: data}
	h1, h2 := headerFrom(feed), headerFrom(feed)
	for _, h := range []Header{h1, h2} {
		if got, want := h.Key(), referenceHeaderKey(h); got != want {
			t.Fatalf("Header.Key = %q, reference %q", got, want)
		}
	}
	// canon.String walks Header reflectively (it implements no
	// CanonicalString); its equality must coincide with Key equality.
	if (canon.String(h1) == canon.String(h2)) != (h1.Key() == h2.Key()) {
		t.Fatalf("canon.String and Key disagree on equality of %v vs %v", h1, h2)
	}
	if (h1 == h2) != (h1.Key() == h2.Key()) {
		t.Fatalf("Key is not injective for %v vs %v", h1, h2)
	}
	requireHashIff(t, "header", h1.Key(), h2.Key(), h1.KeyHash64(), h2.KeyHash64())
	h3 := perturbHeader(h1, feed)
	requireHashIff(t, "perturbed header", h1.Key(), h3.Key(), h1.KeyHash64(), h3.KeyHash64())
}

func matchFrom(f *byteFeed) Match {
	m := MatchAll()
	fields := f.next()
	for fld := Field(0); int(fld) < numMatchable; fld++ {
		if fields&(1<<uint(fld%8)) == 0 || f.next()&1 == 0 {
			continue
		}
		switch fld {
		case FieldIPSrc:
			m = m.WithIPSrcPrefix(IPAddr(uint32(f.u64(4))), 1+int(f.next()%32))
		case FieldIPDst:
			m = m.WithIPDstPrefix(IPAddr(uint32(f.u64(4))), 1+int(f.next()%32))
		case FieldEthSrc, FieldEthDst:
			m = m.With(fld, f.u64(6))
		default:
			m = m.With(fld, f.u64(2))
		}
	}
	return m
}

// referenceMatchKey is the fmt-based rendering Match.Key historically
// used.
func referenceMatchKey(m Match) string {
	if m.present == 0 {
		return "*"
	}
	var b strings.Builder
	first := true
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		switch f {
		case FieldIPSrc:
			fmt.Fprintf(&b, "%v=%s/%d", f, IPAddr(uint32(m.values[f])), m.ipSrcBits)
		case FieldIPDst:
			fmt.Fprintf(&b, "%v=%s/%d", f, IPAddr(uint32(m.values[f])), m.ipDstBits)
		case FieldEthSrc, FieldEthDst:
			fmt.Fprintf(&b, "%v=%s", f, EthAddr(m.values[f]))
		default:
			fmt.Fprintf(&b, "%v=%d", f, m.values[f])
		}
	}
	return b.String()
}

func FuzzMatchKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x0f, 0xf0, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Fuzz(checkMatchKey)
}

func checkMatchKey(t *testing.T, data []byte) {
	feed := &byteFeed{data: data}
	m1, m2 := matchFrom(feed), matchFrom(feed)
	for _, m := range []Match{m1, m2} {
		if got, want := m.Key(), referenceMatchKey(m); got != want {
			t.Fatalf("Match.Key = %q, reference %q", got, want)
		}
		// The canon.Stringer hook must route canon.String through
		// the hand-written encoder.
		if got := canon.String(m); got != m.Key() {
			t.Fatalf("canon.String(match) = %q, CanonicalString %q", got, m.Key())
		}
	}
	if (m1.Key() == m2.Key()) != m1.Equal(m2) {
		t.Fatalf("Key equality disagrees with Match.Equal for %q vs %q", m1.Key(), m2.Key())
	}
	requireHashIff(t, "match", m1.Key(), m2.Key(), matchHash(m1), matchHash(m2))
}

func matchHash(m Match) uint64 { return canon.Finish(m.mixKey(canon.WordSeed)) }

func actionsFrom(f *byteFeed) []Action {
	var actions []Action
	for j := int(f.next() % 3); j >= 0; j-- {
		switch f.next() % 5 {
		case 0:
			actions = append(actions, Output(PortID(f.next()%4+1)))
		case 1:
			actions = append(actions, Flood())
		case 2:
			actions = append(actions, SetField(FieldEthDst, f.u64(6)))
		case 3:
			actions = append(actions, Drop())
		default:
			actions = append(actions, ToController())
		}
	}
	return actions
}

func ruleFrom(f *byteFeed) Rule {
	return Rule{
		Priority:    int(f.next() % 16),
		Match:       matchFrom(f),
		Actions:     actionsFrom(f),
		IdleTimeout: int(f.next() % 8),
		HardTimeout: int(f.next() % 8),
		PacketCount: uint64(f.next()),
		ByteCount:   uint64(f.next()) * 100,
	}
}

func rulesFrom(f *byteFeed) []Rule {
	n := int(f.next()%5) + 1
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		rules = append(rules, ruleFrom(f))
	}
	return rules
}

// perturbRules returns a copy of rules with one feed-chosen rule
// changed in one feed-chosen way — counters only, an action list that
// renders alike (empty vs explicit drop) or differently, the priority,
// a timeout — or left alone.
func perturbRules(rules []Rule, f *byteFeed) []Rule {
	out := append([]Rule(nil), rules...)
	r := &out[int(f.next())%len(out)]
	switch f.next() % 6 {
	case 0:
		r.PacketCount++
	case 1:
		r.Actions = nil
	case 2:
		r.Actions = []Action{Drop()}
	case 3:
		r.Priority = int(f.next() % 16)
	case 4:
		r.IdleTimeout = int(f.next() % 8)
	}
	return out
}

func tableOf(rules []Rule) *FlowTable {
	t := NewFlowTable()
	for _, r := range rules {
		t.Install(r)
	}
	return t
}

// requireTableHashIff checks both table hashes, with and without
// counters, against their keys.
func requireTableHashIff(t *testing.T, what string, a, b *FlowTable) {
	t.Helper()
	for _, counters := range []bool{false, true} {
		requireHashIff(t, what+" canonical", a.RenderCanonicalKey(counters), b.RenderCanonicalKey(counters),
			a.KeyHash64(true, counters), b.KeyHash64(true, counters))
		requireHashIff(t, what+" insertion-order", a.RenderInsertionOrderKey(counters), b.RenderInsertionOrderKey(counters),
			a.KeyHash64(false, counters), b.KeyHash64(false, counters))
	}
}

// FuzzFlowTableCanonical asserts the canonical flow-table key and hash
// are insertion-order independent (the §2.2.2 "merging equivalent flow
// tables" reduction), that the canonical key agrees with a reflective
// canon.String-based canonicalization of the same rule multiset, and
// that the insertion-order hash tells arrival orders apart exactly when
// the insertion-order key does.
func FuzzFlowTableCanonical(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}, int64(42))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 7, 7, 7, 1, 2, 3}, int64(7))
	f.Fuzz(checkFlowTableCanonical)
}

func checkFlowTableCanonical(t *testing.T, data []byte, seed int64) {
	feed := &byteFeed{data: data}
	rules := rulesFrom(feed)

	t1 := tableOf(rules)
	requireTableHashIff(t, "perturbed", t1, tableOf(perturbRules(rules, feed)))
	requireTableHashIff(t, "independent", t1, tableOf(rulesFrom(feed)))
	t2 := NewFlowTable()
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(rules)) {
		t2.Install(rules[i])
	}
	// Install replaces same-priority/same-match rules, so the two
	// tables hold the same multiset only when all (priority, match)
	// pairs are distinct; skip shuffles that collapsed rules.
	if t1.Len() != t2.Len() || t1.Len() != len(rules) {
		return
	}
	if k1, k2 := t1.RenderCanonicalKey(false), t2.RenderCanonicalKey(false); k1 != k2 {
		t.Fatalf("canonical keys differ across insertion orders:\n%s\nvs\n%s", k1, k2)
	}
	for _, counters := range []bool{false, true} {
		if t1.KeyHash64(true, counters) != t2.KeyHash64(true, counters) {
			t.Fatalf("canonical hashes (counters %v) differ across insertion orders", counters)
		}
	}
	requireTableHashIff(t, "permuted", t1, t2)
	// The reflective cross-check: canonicalize via canon.String of
	// each rule (counters excluded by zeroing them), sorted.
	strip := func(rs []Rule) map[string]int {
		set := make(map[string]int)
		for _, r := range rs {
			r.PacketCount, r.ByteCount, r.Age, r.IdleAge = 0, 0, 0, 0
			set[canon.String(r)]++
		}
		return set
	}
	s1, s2 := strip(t1.Rules()), strip(t2.Rules())
	if len(s1) != len(s2) {
		t.Fatalf("reflective rule multisets differ in size")
	}
	for k, n := range s1 {
		if s2[k] != n {
			t.Fatalf("reflective rule multisets differ at %q", k)
		}
	}
}

func msgFrom(f *byteFeed) Msg {
	m := Msg{
		// Types past MsgPortStatus take the fallback rendering.
		Type:      MsgType(f.next() % 12),
		Switch:    SwitchID(f.next() % 3),
		Cmd:       FlowModCmd(f.next() % 4),
		Rule:      ruleFrom(f),
		Buffer:    BufferID(int(f.next()%3) - 1),
		Packet:    Packet{Header: headerFrom(f), ID: PacketID(f.next()), Orig: PacketID(f.next())},
		InPort:    PortID(f.next() % 3),
		Reason:    PacketInReason(f.next() % 3),
		StatsPort: PortID(f.next() % 3),
		PortUp:    f.next()&1 == 1,
		Xid:       int(f.next() % 3),
		Seq:       int(f.next()),
	}
	if f.next()&1 == 1 {
		m.Actions = actionsFrom(f)
	}
	for i := int(f.next() % 3); i > 0; i-- {
		m.Stats = append(m.Stats, PortStats{Port: PortID(f.next() % 3), TxBytes: uint64(f.next() % 2), RxBytes: uint64(f.next() % 2)})
	}
	return m
}

// perturbMsg returns m with one feed-chosen field changed, rendered or
// not, to a small feed-chosen value.
func perturbMsg(m Msg, f *byteFeed) Msg {
	v := f.next()
	switch v % 16 {
	case 0:
		m.Type = MsgType(v % 12)
	case 1:
		m.Switch = SwitchID(v % 3)
	case 2:
		m.Cmd = FlowModCmd(v % 4)
	case 3:
		m.Rule = perturbRules([]Rule{m.Rule}, f)[0]
	case 4:
		m.Buffer = BufferID(int(v%3) - 1)
	case 5:
		m.Packet.Header = perturbHeader(m.Packet.Header, f)
	case 6:
		m.Packet.ID = PacketID(v % 2)
	case 7:
		m.InPort = PortID(v % 3)
	case 8:
		m.Reason = PacketInReason(v % 3)
	case 9:
		if len(m.Actions) == 0 {
			m.Actions = []Action{Drop()}
		} else {
			m.Actions = nil
		}
	case 10:
		m.StatsPort = PortID(v % 3)
	case 11:
		m.Stats = append(append([]PortStats(nil), m.Stats...), PortStats{Port: PortID(v % 3)})
	case 12:
		m.PortUp = !m.PortUp
	case 13:
		m.Xid = int(v % 3)
	case 14:
		m.Seq++
	}
	return m
}

// FuzzMsgKey asserts the structured message hash agrees with Msg.Key
// on equality for every message type: flow_mod add and delete,
// packet_out, packet_in, and the types rendered through String. The
// perturbed pairs change one field at a time, so they cover fields the
// key leaves out (Seq, packet IDs, Xid outside barriers) as well as
// renderings that merge values (reasons, empty action lists).
func FuzzMsgKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 5, 3, 1, 2, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0, 0, 2, 2, 2, 1, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{4, 2, 1, 7, 0, 1, 1, 2, 2, 0, 1, 0, 1})
	f.Add([]byte("\x05\x06\x07\x08\x09\x0a\x0b stats barrier join leave port"))
	f.Fuzz(checkMsgKey)
}

func checkMsgKey(t *testing.T, data []byte) {
	feed := &byteFeed{data: data}
	m1 := msgFrom(feed)
	m2 := perturbMsg(m1, feed)
	m3 := msgFrom(feed)
	for _, m := range []Msg{m2, m3} {
		requireHashIff(t, "msg "+m1.Type.String()+" vs "+m.Type.String(), m1.Key(), m.Key(), m1.KeyHash64(), m.KeyHash64())
	}
}

// TestKeyHashAgreement runs the fuzz checks over a fixed batch of
// pseudo-random inputs, so a plain go test reaches every perturbation
// case of every check, not only the few the seed corpora hit.
func TestKeyHashAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		checkHeaderKey(t, data)
		checkMatchKey(t, data)
		checkFlowTableCanonical(t, data, rng.Int63())
		checkMsgKey(t, data)
	}
}

// TestHashesMergeWhatKeysMerge pins the renderings that merge distinct
// values, which the generators above rarely or never produce: each pair
// renders one key, so it must hash alike.
func TestHashesMergeWhatKeysMerge(t *testing.T) {
	wide := MatchAll().With(FieldEthSrc, 1<<50|5).With(FieldIPDst, 1<<40|7)
	narrow := MatchAll().With(FieldEthSrc, 5).With(FieldIPDst, 7)
	requireHashIff(t, "match value bits past the rendered width", wide.Key(), narrow.Key(), matchHash(wide), matchHash(narrow))
	msgs := [][2]Msg{
		{{Type: MsgFlowMod, Rule: Rule{Priority: 3}}, {Type: MsgFlowMod, Rule: Rule{Priority: 3, Actions: []Action{Drop()}}}},
		{{Type: MsgPacketIn, Reason: ReasonNoMatch}, {Type: MsgPacketIn, Reason: PacketInReason(7)}},
		{{Type: MsgPacketOut, Actions: []Action{{Type: ActionOutput, Port: 2, Value: 9}}}, {Type: MsgPacketOut, Actions: []Action{Output(2)}}},
		{{Type: MsgBarrierRequest, Switch: 1, Xid: 4}, {Type: MsgBarrierRequest, Switch: 2, Xid: 4}},
		{{Type: MsgStatsReply, Stats: []PortStats{}}, {Type: MsgStatsReply}},
		{{Type: MsgType(40), Switch: 1}, {Type: MsgType(40), Switch: 2}},
	}
	for _, p := range msgs {
		requireHashIff(t, "msg "+p[0].Type.String(), p[0].Key(), p[1].Key(), p[0].KeyHash64(), p[1].KeyHash64())
		if p[0].Key() != p[1].Key() {
			t.Errorf("%s: test pair renders different keys %q and %q", p[0].Type, p[0].Key(), p[1].Key())
		}
	}
}
