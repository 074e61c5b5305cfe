package openflow

import (
	"math/bits"

	"github.com/nice-go/nice/internal/canon"
)

// This file holds the structured hashes behind incremental state
// fingerprinting. Each mirrors one encoder of keys.go: it folds exactly
// the fields that encoder renders, as a prefix-free word sequence, so
// two values hash equal exactly when their keys are equal (up to 64-bit
// collisions). Where a rendering merges distinct values — an empty
// action list renders like an explicit drop, a match renders 48 bits of
// an Ethernet value — the hash merges them too. keys_fuzz_test.go holds
// every hash to its key.

// mix folds one integer-valued field.
func mix[T ~int | ~int32 | ~uint8 | ~uint16 | ~uint32 | ~uint64](x uint64, v T) uint64 {
	return canon.Mix(x, uint64(v))
}

// mixKey folds the fields Header.appendKey renders, packed into words.
func (h *Header) mixKey(x uint64) uint64 {
	x = mix(x, h.EthSrc)
	x = mix(x, h.EthDst)
	x = canon.Mix(x, uint64(h.EthType)|uint64(h.VLAN)<<16|uint64(h.IPSrc)<<32)
	x = canon.Mix(x, uint64(h.IPDst)|uint64(h.TPSrc)<<32|uint64(h.TPDst)<<48)
	x = canon.Mix(x, uint64(h.TCPSeq)|uint64(h.VLANPCP)<<32|uint64(h.IPProto)<<40|
		uint64(h.IPTOS)<<48|uint64(h.TCPFlags)<<56)
	x = mix(x, h.ArpOp)
	return canon.MixString(x, h.Payload)
}

// KeyHash64 is the structured hash of Key.
func (h Header) KeyHash64() uint64 { return canon.Finish(h.mixKey(canon.WordSeed)) }

// mixKey folds the present fields Match.appendKey renders: the
// presence mask, then each present value as rendered (IP addresses as
// 32 bits with their prefix length, Ethernet addresses as 48 bits).
func (m *Match) mixKey(x uint64) uint64 {
	present := m.present & (1<<numMatchable - 1)
	x = mix(x, present)
	for p := present; p != 0; p &= p - 1 {
		f := Field(bits.TrailingZeros32(p))
		v := m.values[f]
		switch f {
		case FieldIPSrc:
			v = uint64(uint32(v)) | uint64(m.ipSrcBits)<<32
		case FieldIPDst:
			v = uint64(uint32(v)) | uint64(m.ipDstBits)<<32
		case FieldEthSrc, FieldEthDst:
			v &= ethAddrMask
		}
		x = canon.Mix(x, v)
	}
	return x
}

// mixKey folds the fields Action.appendKey renders for the action's
// type.
func (a Action) mixKey(x uint64) uint64 {
	x = mix(x, a.Type)
	switch a.Type {
	case ActionOutput:
		return mix(x, a.Port)
	case ActionSetField:
		return mix(mix(x, a.Field), a.Value)
	}
	return x
}

// mixActions folds an action list as appendActionsKey renders it; an
// empty list renders (and so hashes) like an explicit drop.
func mixActions(x uint64, actions []Action) uint64 {
	if len(actions) == 0 {
		return Drop().mixKey(mix(x, 1))
	}
	x = mix(x, len(actions))
	for _, a := range actions {
		x = a.mixKey(x)
	}
	return x
}

// mixKey folds the fields Rule.appendKey renders.
func (r *Rule) mixKey(x uint64) uint64 {
	x = mix(x, r.Priority)
	x = r.Match.mixKey(x)
	x = mixActions(x, r.Actions)
	x = mix(x, r.IdleTimeout)
	return mix(x, r.HardTimeout)
}

// mixStateKey folds the fields Rule.appendStateKey renders.
func (r *Rule) mixStateKey(x uint64, includeCounters bool) uint64 {
	x = r.mixKey(x)
	if includeCounters {
		x = mix(x, r.PacketCount)
		x = mix(x, r.ByteCount)
		x = mix(x, r.Age)
		x = mix(x, r.IdleAge)
	}
	return x
}

// KeyHash64 is the structured hash of Key: the fields Msg.appendKey
// renders for the message's type, so Seq, packet IDs and (except in
// barrier messages) Xid stay out. It takes a pointer because messages
// are large and channel hashing visits every queued one.
func (m *Msg) KeyHash64() uint64 {
	x := mix(canon.WordSeed, m.Type)
	switch m.Type {
	case MsgFlowMod:
		x = mix(x, m.Cmd)
		if m.Cmd == FlowAdd {
			x = m.Rule.mixKey(x)
		} else {
			x = mix(m.Rule.Match.mixKey(x), m.Rule.Priority)
		}
	case MsgPacketOut:
		x = mix(x, m.Buffer)
		x = m.Packet.Header.mixKey(x)
		x = mix(x, m.InPort)
		x = mixActions(x, m.Actions)
	case MsgPacketIn:
		x = mix(x, m.Switch)
		x = mix(x, m.InPort)
		x = mix(x, m.Buffer)
		// PacketInReason.String names ReasonAction and renders every
		// other value as no_match.
		x = mix(x, b2u(m.Reason == ReasonAction))
		x = m.Packet.Header.mixKey(x)
	case MsgStatsRequest:
		x = mix(mix(x, m.Switch), m.StatsPort)
	case MsgStatsReply:
		x = mix(mix(x, m.Switch), len(m.Stats))
		for _, st := range m.Stats {
			x = mix(mix(mix(x, st.Port), st.TxBytes), st.RxBytes)
		}
	case MsgBarrierRequest:
		x = mix(x, m.Xid)
	case MsgBarrierReply:
		x = mix(mix(x, m.Switch), m.Xid)
	case MsgSwitchJoin, MsgSwitchLeave:
		x = mix(x, m.Switch)
	case MsgPortStatus:
		x = mix(mix(mix(x, m.Switch), m.InPort), b2u(m.PortUp))
	}
	return canon.Finish(x)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
