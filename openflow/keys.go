package openflow

import "strconv"

// This file holds the hand-written canonical encoders for the state
// types: the renderings the oracle fingerprint hashes and the structured
// hashes of hash.go mirror. Each encoder appends to a caller-supplied
// byte slice and produces output byte-identical to the historical fmt
// formatting (the fuzz tests in keys_fuzz_test.go hold the encoders to
// the reflective rendering).

const hexdigits = "0123456789abcdef"

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

func appendHex(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 16) }

// appendByteHex2 appends exactly two lowercase hex digits.
func appendByteHex2(b []byte, v byte) []byte {
	return append(b, hexdigits[v>>4], hexdigits[v&0xf])
}

// appendEthAddr renders aa:bb:cc:dd:ee:ff.
func appendEthAddr(b []byte, a EthAddr) []byte {
	for i := 0; i < 6; i++ {
		if i > 0 {
			b = append(b, ':')
		}
		b = appendByteHex2(b, a.Byte(i))
	}
	return b
}

// appendIPAddr renders dotted-quad decimal.
func appendIPAddr(b []byte, ip IPAddr) []byte {
	for i := 0; i < 4; i++ {
		if i > 0 {
			b = append(b, '.')
		}
		b = appendUint(b, uint64(ip.Byte(i)))
	}
	return b
}

// appendHeaderKey is the lossless header rendering behind Header.Key.
func (h Header) appendKey(b []byte) []byte {
	b = appendHex(b, uint64(h.EthSrc))
	b = append(b, '|')
	b = appendHex(b, uint64(h.EthDst))
	b = append(b, '|')
	b = appendHex(b, uint64(h.EthType))
	b = append(b, '|')
	b = appendHex(b, uint64(h.VLAN))
	b = append(b, '|')
	b = appendHex(b, uint64(h.VLANPCP))
	b = append(b, '|')
	b = appendHex(b, uint64(uint32(h.IPSrc)))
	b = append(b, '|')
	b = appendHex(b, uint64(uint32(h.IPDst)))
	b = append(b, '|')
	b = appendHex(b, uint64(h.IPProto))
	b = append(b, '|')
	b = appendHex(b, uint64(h.IPTOS))
	b = append(b, '|')
	b = appendHex(b, uint64(h.TPSrc))
	b = append(b, '|')
	b = appendHex(b, uint64(h.TPDst))
	b = append(b, '|')
	b = appendHex(b, uint64(h.TCPFlags))
	b = append(b, '|')
	b = appendHex(b, uint64(h.TCPSeq))
	b = append(b, '|')
	b = appendHex(b, uint64(h.ArpOp))
	b = append(b, '|')
	return append(b, h.Payload...)
}

// appendKey renders one action exactly as Action.String does.
func (a Action) appendKey(b []byte) []byte {
	switch a.Type {
	case ActionOutput:
		b = append(b, "output:"...)
		return appendInt(b, int(a.Port))
	case ActionFlood:
		return append(b, "flood"...)
	case ActionDrop:
		return append(b, "drop"...)
	case ActionController:
		return append(b, "controller"...)
	case ActionSetField:
		b = append(b, "set("...)
		b = append(b, a.Field.String()...)
		b = append(b, '=')
		b = appendUint(b, a.Value)
		return append(b, ')')
	default:
		b = append(b, "action("...)
		b = appendInt(b, int(a.Type))
		return append(b, ')')
	}
}

func appendActionsKey(b []byte, actions []Action) []byte {
	if len(actions) == 0 {
		return append(b, "drop"...)
	}
	for i, a := range actions {
		if i > 0 {
			b = append(b, ';')
		}
		b = a.appendKey(b)
	}
	return b
}

// appendKey renders the match exactly as the historical Match.Key did.
func (m Match) appendKey(b []byte) []byte {
	if m.present == 0 {
		return append(b, '*')
	}
	first := true
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, f.String()...)
		b = append(b, '=')
		switch f {
		case FieldIPSrc:
			b = appendIPAddr(b, IPAddr(uint32(m.values[f])))
			b = append(b, '/')
			b = appendUint(b, uint64(m.ipSrcBits))
		case FieldIPDst:
			b = appendIPAddr(b, IPAddr(uint32(m.values[f])))
			b = append(b, '/')
			b = appendUint(b, uint64(m.ipDstBits))
		case FieldEthSrc, FieldEthDst:
			b = appendEthAddr(b, EthAddr(m.values[f]))
		default:
			b = appendUint(b, m.values[f])
		}
	}
	return b
}

// appendKey renders the rule exactly as the historical Rule.Key did.
func (r Rule) appendKey(b []byte) []byte {
	b = append(b, "prio="...)
	b = appendInt(b, r.Priority)
	b = append(b, " match=["...)
	b = r.Match.appendKey(b)
	b = append(b, "] actions=["...)
	b = appendActionsKey(b, r.Actions)
	b = append(b, "] idle="...)
	b = appendInt(b, r.IdleTimeout)
	b = append(b, " hard="...)
	b = appendInt(b, r.HardTimeout)
	return b
}

// appendStateKey renders the rule with counters folded in when asked
// (FlowTable.ruleStateKey's format).
func (r Rule) appendStateKey(b []byte, includeCounters bool) []byte {
	b = r.appendKey(b)
	if includeCounters {
		b = append(b, " n="...)
		b = appendUint(b, r.PacketCount)
		b = append(b, " b="...)
		b = appendUint(b, r.ByteCount)
		b = append(b, " age="...)
		b = appendInt(b, r.Age)
		b = append(b, " idle="...)
		b = appendInt(b, r.IdleAge)
	}
	return b
}

// appendKey renders the message for state hashing, matching Msg.Key. The
// three message types that dominate controller channels mid-search
// (flow_mod, packet_out, packet_in) have direct encodings; the rest fall
// back to the fmt path.
func (m Msg) appendKey(b []byte) []byte {
	switch m.Type {
	case MsgFlowMod:
		if m.Cmd == FlowAdd {
			b = append(b, "flow_mod add "...)
			return m.Rule.appendKey(b)
		}
		b = append(b, "flow_mod "...)
		b = append(b, m.Cmd.String()...)
		b = append(b, " match=["...)
		b = m.Rule.Match.appendKey(b)
		b = append(b, "] prio="...)
		return appendInt(b, m.Rule.Priority)
	case MsgPacketOut:
		b = append(b, "packet_out buf="...)
		b = appendInt(b, int(m.Buffer))
		b = append(b, " pkt="...)
		b = m.Packet.Header.appendKey(b)
		b = append(b, " in="...)
		b = appendInt(b, int(m.InPort))
		b = append(b, " actions=["...)
		b = appendActionsKey(b, m.Actions)
		return append(b, ']')
	case MsgPacketIn:
		b = append(b, "packet_in "...)
		b = appendInt(b, int(m.Switch))
		b = append(b, " port="...)
		b = appendInt(b, int(m.InPort))
		b = append(b, " buf="...)
		b = appendInt(b, int(m.Buffer))
		b = append(b, " reason="...)
		b = append(b, m.Reason.String()...)
		b = append(b, " pkt="...)
		return m.Packet.Header.appendKey(b)
	default:
		return append(b, m.String()...)
	}
}
