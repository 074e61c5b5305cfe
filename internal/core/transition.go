// Package core implements NICE's primary contribution: an explicit-state
// model checker for the whole OpenFlow system (controller + switches +
// hosts) whose input space is pruned by concolic execution of the
// controller's event handlers (discover_packets / discover_stats,
// Figure 5 of the paper) and whose interleaving space is pruned by the
// OpenFlow-specific search strategies of §4 (PKT-SEQ, NO-DELAY, UNUSUAL,
// FLOW-IR).
package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// TransitionKind enumerates the system transitions (§2.2 and Figure 5).
type TransitionKind int

const (
	// THostSend is a client send of one discovered relevant packet.
	THostSend TransitionKind = iota
	// THostReply is a server send_reply of the pending reply head.
	THostReply
	// THostDiscover is the discover_packets transition: concolic
	// execution of the packet_in handler from this client's context.
	THostDiscover
	// THostMove relocates a mobile host.
	THostMove
	// TCtrlDispatch lets the controller handle the head message from
	// one switch's channel (packet_in, barrier_reply, join/leave, or a
	// concrete stats_reply when symbolic execution is disabled).
	TCtrlDispatch
	// TCtrlDiscoverStats is the discover_stats transition: concolic
	// execution of the statistics handler.
	TCtrlDiscoverStats
	// TCtrlProcessStats handles the pending stats_reply with one
	// discovered concrete stats vector.
	TCtrlProcessStats
	// TCtrlEnv applies an application environment event (e.g. the load
	// balancer's policy change).
	TCtrlEnv
	// TSwitchProcess is process_pkt: the switch dequeues the head of
	// every non-empty ingress channel and processes all of them.
	TSwitchProcess
	// TSwitchProcessPort is the fine-grained baseline variant:
	// process the head of a single port's channel.
	TSwitchProcessPort
	// TSwitchOF is process_of: apply the head controller→switch
	// message.
	TSwitchOF
	// TSwitchTick fires flow-table timeouts (optional extension).
	TSwitchTick
	// TFaultDrop / TFaultDuplicate / TFaultReorder are the optional
	// channel fault-model transitions of §2.2.2; TFaultLinkDown fails
	// a link, TFaultSwitchDown a whole switch.
	TFaultDrop
	TFaultDuplicate
	TFaultReorder
	TFaultLinkDown
	TFaultSwitchDown
)

var kindNames = map[TransitionKind]string{
	THostSend:          "send",
	THostReply:         "send_reply",
	THostDiscover:      "discover_packets",
	THostMove:          "move",
	TCtrlDispatch:      "ctrl_dispatch",
	TCtrlDiscoverStats: "discover_stats",
	TCtrlProcessStats:  "process_stats",
	TCtrlEnv:           "env",
	TSwitchProcess:     "process_pkt",
	TSwitchProcessPort: "process_pkt_port",
	TSwitchOF:          "process_of",
	TSwitchTick:        "tick",
	TFaultDrop:         "fault_drop",
	TFaultDuplicate:    "fault_duplicate",
	TFaultReorder:      "fault_reorder",
	TFaultLinkDown:     "fault_link_down",
	TFaultSwitchDown:   "fault_switch_down",
}

func (k TransitionKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("transition(%d)", int(k))
}

// kindByName is the inverse of kindNames, for wire decoding.
var kindByName = func() map[string]TransitionKind {
	m := make(map[string]TransitionKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// ParseTransitionKind resolves a transition kind from its canonical
// String spelling — the inverse used when decoding persisted traces
// (internal/service artifacts).
func ParseTransitionKind(name string) (TransitionKind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// Transition is a self-contained transition descriptor: it carries
// everything needed to re-execute it (the packet header for sends, the
// stats vector for process_stats, the move target), so a recorded
// sequence of Transitions replays deterministically from the initial
// state — the paper's checkpoint-free state restoration (§6).
type Transition struct {
	Kind TransitionKind

	Host openflow.HostID   // host transitions
	Sw   openflow.SwitchID // controller/switch transitions
	Port openflow.PortID   // TSwitchProcessPort

	Hdr    openflow.Header      // THostSend / THostReply payload
	Stats  []openflow.PortStats // TCtrlProcessStats values
	MoveTo topo.PortKey         // THostMove target
	Env    string               // TCtrlEnv event name

	// seq is scheduling metadata (the head message's issue number) used
	// by the UNUSUAL strategy to order process_of transitions; it is
	// not part of the transition's identity.
	seq int
}

// Key renders the transition canonically; traces are sequences of keys.
func (t Transition) Key() string {
	var b strings.Builder
	b.WriteString(t.Kind.String())
	switch t.Kind {
	case THostSend, THostReply:
		fmt.Fprintf(&b, " %v (%s)", t.Host, t.Hdr)
	case THostDiscover:
		fmt.Fprintf(&b, " %v", t.Host)
	case THostMove:
		fmt.Fprintf(&b, " %v -> %v", t.Host, t.MoveTo)
	case TCtrlDispatch, TCtrlDiscoverStats:
		fmt.Fprintf(&b, " %v", t.Sw)
	case TCtrlProcessStats:
		fmt.Fprintf(&b, " %v %v", t.Sw, t.Stats)
	case TCtrlEnv:
		fmt.Fprintf(&b, " %s", t.Env)
	case TSwitchProcess, TSwitchOF, TSwitchTick, TFaultSwitchDown:
		fmt.Fprintf(&b, " %v", t.Sw)
	case TSwitchProcessPort, TFaultDrop, TFaultDuplicate, TFaultReorder, TFaultLinkDown:
		fmt.Fprintf(&b, " %v:%v", t.Sw, t.Port)
	}
	return b.String()
}

func (t Transition) String() string { return t.Key() }

// same reports whether t and u have equal descriptor fields, and so
// equal keys, without rendering either.
func (t Transition) same(u Transition) bool {
	return t.Kind == u.Kind && t.Host == u.Host && t.Sw == u.Sw && t.Port == u.Port &&
		t.Hdr == u.Hdr && t.MoveTo == u.MoveTo && t.Env == u.Env && slices.Equal(t.Stats, u.Stats)
}

// TraceFingerprint hashes a trace's canonical rendering (one key per
// line) to a 64-bit identity.
func TraceFingerprint(trace []Transition) uint64 {
	var sb strings.Builder
	for _, t := range trace {
		sb.WriteString(t.Key())
		sb.WriteByte('\n')
	}
	return canon.Hash64String(sb.String())
}
