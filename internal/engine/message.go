// Package engine implements ExSPAN's distributed query processor: a
// per-node pipelined semi-naïve (PSN) evaluator for localized NDlog
// programs with incremental insert/delete maintenance, MIN/MAX/COUNT
// aggregates, event predicates, and pluggable provenance modes
// (none, reference-based, value-based, centralized — §3 "Distribution").
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/types"
)

// Delta signs.
const (
	Insert int8 = 1
	Delete int8 = -1
	// Update signals a value-based provenance payload change for a tuple
	// that remains visible; it carries the tuple's new payload. Reference
	// mode never sends updates ("rather than shipping the whole tuple, the
	// cache invalidation procedure requires only that an invalidation flag
	// be sent" — updates are the value-based analogue).
	Update int8 = 0
)

// rederive is the node-local delta sign of the retraction protocol's second
// phase: re-show an over-deleted tuple whose alternate derivations survived
// the deletion wave (see "Deletion semantics" in ARCHITECTURE.md). It never
// travels in a Message — releases are staged per node and the resulting
// firings ship as ordinary Insert deltas — so the wire format is untouched.
const rederive int8 = 2

// Message is one tuple shipped between nodes during protocol execution.
// The serialized layout is specified in docs/wire-format.md; WireSize and
// Encode must stay in lockstep so simulated byte counts match deployment.
// The provenance mode determines which optional fields travel:
//
//   - reference-based: HasRef with the (RID, RLoc) pair — the paper's "only
//     additional attributes shipped with each message" (20 B + 4 B);
//   - value-based: Payload, the full provenance of the tuple encoded as a
//     BDD (the evaluation's "Value-based Prov. (BDD)" configuration);
//   - none/centralized: neither.
type Message struct {
	Tuple   types.Tuple
	Delta   int8
	HasRef  bool
	RID     types.ID
	RLoc    types.NodeID
	Payload []byte
}

// message flag bits.
const (
	flagRef     = 1 << 0
	flagPayload = 1 << 1
)

// WireSize reports the serialized size in bytes (identical to
// len(m.Encode(nil))).
func (m *Message) WireSize() int {
	n := 2 + m.Tuple.WireSize() // flags + delta + tuple
	if m.HasRef {
		n += types.IDLen + 4
	}
	if m.Payload != nil {
		n += types.UvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	}
	return n
}

// Encode appends the serialized message to dst. A nil dst is sized exactly
// via WireSize so per-send encoding performs a single allocation with no
// growth copies.
func (m *Message) Encode(dst []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, m.WireSize())
	}
	var flags byte
	if m.HasRef {
		flags |= flagRef
	}
	if m.Payload != nil {
		flags |= flagPayload
	}
	dst = append(dst, flags, byte(m.Delta))
	dst = m.Tuple.Encode(dst)
	if m.HasRef {
		dst = append(dst, m.RID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.RLoc)))
	}
	if m.Payload != nil {
		dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst
}

var errBadMessage = errors.New("engine: malformed message")

// DecodeMessage parses a serialized message. The delta byte must be one of
// the three wire signs (insert/delete/update, docs/wire-format.md) — in
// particular the engine-internal rederive sign is rejected, so a corrupt or
// hostile datagram cannot trigger the retraction protocol's phase-2
// re-show while a deletion wave is in flight.
func DecodeMessage(b []byte) (*Message, error) {
	if len(b) < 2 {
		return nil, errBadMessage
	}
	flags := b[0]
	delta := int8(b[1])
	if delta != Insert && delta != Delete && delta != Update {
		return nil, errBadMessage
	}
	m := &Message{Delta: delta}
	used := 2
	t, n, err := types.DecodeTuple(b[used:])
	if err != nil {
		return nil, err
	}
	m.Tuple = t
	used += n
	if flags&flagRef != 0 {
		if len(b) < used+types.IDLen+4 {
			return nil, errBadMessage
		}
		copy(m.RID[:], b[used:used+types.IDLen])
		used += types.IDLen
		m.RLoc = types.NodeID(int32(binary.BigEndian.Uint32(b[used:])))
		used += 4
		m.HasRef = true
	}
	if flags&flagPayload != 0 {
		// The length is attacker-supplied: compare it as a uint64 against
		// the bytes that remain, never after a narrowing conversion (a
		// length ≥ 2^63 is negative as an int and would pass a signed check,
		// then panic in make).
		plen, sz := binary.Uvarint(b[used:])
		if sz <= 0 || plen > uint64(len(b)-used-sz) {
			return nil, errBadMessage
		}
		used += sz
		m.Payload = make([]byte, plen)
		copy(m.Payload, b[used:used+int(plen)])
	}
	return m, nil
}

// String renders the message for logs.
func (m *Message) String() string {
	sign := "+"
	switch m.Delta {
	case Delete:
		sign = "-"
	case Update:
		sign = "~"
	}
	return fmt.Sprintf("%s%s", sign, m.Tuple)
}

// Transport ships messages between engine nodes. Implementations exist for
// the discrete-event simulator and for real UDP sockets; the engine is
// oblivious to which one carries its traffic (the paper's "identical
// codebase for both simulation and deployment modes").
//
// Ownership: a Message passed to Send belongs to the transport from that
// point on. When the sending Node has a MessagePool attached, the transport
// must release the message back to it once the message is fully consumed
// (after the receiving handler returns in simulation, after serialization
// in deployment).
type Transport interface {
	Send(from, to types.NodeID, m *Message)
}

// MessagePool is an explicit free list of Message values (see types.Pool
// for the sharing and zero-on-Put contract). Recycling the structs removes
// the per-message allocation class from the simulation entirely.
type MessagePool = types.Pool[Message]

// NewMessagePool creates an empty pool.
func NewMessagePool() *MessagePool { return &MessagePool{} }
