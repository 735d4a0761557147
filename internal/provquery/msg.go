// Package provquery implements ExSPAN's distributed provenance querying
// (§5): recursive traversal of the prov/ruleExec partitions across nodes,
// customizable through the three user-defined functions f_pEDB, f_pIDB and
// f_pRULE, with the §6 optimizations — per-vertex result caching with
// invalidation propagation, and BFS / DFS / DFS-with-threshold / random
// moonwalk traversal orders.
package provquery

import (
	"encoding/binary"
	"errors"

	"repro/internal/types"
)

// MsgKind enumerates query-protocol messages; they mirror the events of the
// paper's ten-rule NDlog querying program.
type MsgKind uint8

// Protocol messages.
const (
	// KProvQuery is eProvQuery(@X, QID, VID, Ret): retrieve the provenance
	// of tuple vertex VID stored at X.
	KProvQuery MsgKind = iota
	// KProvResult is eProvResults(@Ret, QID, VID, Prov).
	KProvResult
	// KRuleQuery is eRuleQuery(@RLoc, RQID, RID, X): expand the rule
	// execution vertex RID. RQID is an opaque token unique to the asking
	// node's request (the paper derives it as f_sha1(QID + RID); nothing
	// reads it but the asker, and a rule vertex in the asker's own
	// partition is expanded by a direct call under no ID at all). The
	// message additionally carries the VID of the head tuple being expanded
	// (the querying vertex), which the rule node records on its reverse
	// dataflow edges when it caches the result — §6.1 invalidation
	// bookkeeping is paid per cached traversal, not per derivation.
	KRuleQuery
	// KRuleResult is eRuleResults(@X, RQID, RID, Prov).
	KRuleResult
	// KInvalidate is the cache-invalidation flag of §6.1.
	KInvalidate
)

// Msg is one provenance-query protocol message.
type Msg struct {
	Kind    MsgKind
	QID     types.ID // query instance (RQID for rule queries)
	VID     types.ID // tuple vertex (prov queries/results, invalidation, rule queries: the head being expanded)
	RID     types.ID // rule execution vertex (rule queries/results)
	Ret     types.NodeID
	Payload []byte // UDF-encoded provenance (results only)
}

// WireSize reports the serialized size in bytes.
func (m *Msg) WireSize() int {
	switch m.Kind {
	case KProvQuery:
		return 1 + types.IDLen + types.IDLen + 4
	case KRuleQuery:
		return 1 + types.IDLen + types.IDLen + types.IDLen + 4
	case KProvResult, KRuleResult:
		return 1 + types.IDLen + types.IDLen + 4 + types.UvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	case KInvalidate:
		return 1 + types.IDLen
	}
	return 1
}

// Encode appends the serialized message to dst.
func (m *Msg) Encode(dst []byte) []byte {
	dst = append(dst, byte(m.Kind))
	switch m.Kind {
	case KProvQuery:
		dst = append(dst, m.QID[:]...)
		dst = append(dst, m.VID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Ret)))
	case KRuleQuery:
		dst = append(dst, m.QID[:]...)
		dst = append(dst, m.RID[:]...)
		dst = append(dst, m.VID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Ret)))
	case KProvResult:
		dst = append(dst, m.QID[:]...)
		dst = append(dst, m.VID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Ret)))
		dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	case KRuleResult:
		dst = append(dst, m.QID[:]...)
		dst = append(dst, m.RID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Ret)))
		dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
		dst = append(dst, m.Payload...)
	case KInvalidate:
		dst = append(dst, m.VID[:]...)
	}
	return dst
}

// MsgPool is an explicit free list of protocol messages (see types.Pool
// for the sharing and zero-on-Put contract): query traversals exchange
// many small Msg structs, and recycling them keeps the steady-state query
// path allocation-free. Releasing a Msg drops (never reuses) its Payload
// slice, so results retained by pending queries and caches are unaffected.
type MsgPool = types.Pool[Msg]

// NewMsgPool creates an empty pool.
func NewMsgPool() *MsgPool { return &MsgPool{} }

var errBadMsg = errors.New("provquery: malformed message")

// DecodeMsg parses a serialized protocol message.
func DecodeMsg(b []byte) (*Msg, error) {
	if len(b) < 1 {
		return nil, errBadMsg
	}
	m := &Msg{Kind: MsgKind(b[0])}
	used := 1
	readID := func(dst *types.ID) bool {
		if len(b) < used+types.IDLen {
			return false
		}
		copy(dst[:], b[used:used+types.IDLen])
		used += types.IDLen
		return true
	}
	readRet := func() bool {
		if len(b) < used+4 {
			return false
		}
		m.Ret = types.NodeID(int32(binary.BigEndian.Uint32(b[used:])))
		used += 4
		return true
	}
	readPayload := func() bool {
		// n is attacker-supplied: compare it as a uint64 against the bytes
		// that remain (as an int, a length ≥ 2^63 is negative, passes a
		// signed check and panics in make).
		n, sz := binary.Uvarint(b[used:])
		if sz <= 0 || n > uint64(len(b)-used-sz) {
			return false
		}
		used += sz
		m.Payload = make([]byte, n)
		copy(m.Payload, b[used:used+int(n)])
		used += int(n)
		return true
	}
	switch m.Kind {
	case KProvQuery:
		if !readID(&m.QID) || !readID(&m.VID) || !readRet() {
			return nil, errBadMsg
		}
	case KRuleQuery:
		if !readID(&m.QID) || !readID(&m.RID) || !readID(&m.VID) || !readRet() {
			return nil, errBadMsg
		}
	case KProvResult:
		if !readID(&m.QID) || !readID(&m.VID) || !readRet() || !readPayload() {
			return nil, errBadMsg
		}
	case KRuleResult:
		if !readID(&m.QID) || !readID(&m.RID) || !readRet() || !readPayload() {
			return nil, errBadMsg
		}
	case KInvalidate:
		if !readID(&m.VID) {
			return nil, errBadMsg
		}
	default:
		return nil, errBadMsg
	}
	return m, nil
}
