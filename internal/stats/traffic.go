package stats

import (
	"slices"

	"repro/internal/types"
)

// DatagramOverhead is the per-datagram header cost every driver charges on
// top of a message's encoding: a 20-byte IPv4 header plus an 8-byte UDP
// header (docs/wire-format.md "Byte-count equivalence").
const DatagramOverhead = 28

// Traffic is the byte ledger of one cluster — the paper's communication
// cost. The simulator, the round Scheduler and the UDP deployment each keep
// one and differ only in which sends they charge and when.
type Traffic struct {
	SentBytes   []int64 // per sending node, overhead included
	SentMsgs    []int64 // per sending node
	RecvBytes   []int64 // per receiving node, as charged to the sender
	TotalBytes  int64
	MsgOverhead int // per-message header bytes (DatagramOverhead)
}

// NewTraffic returns an empty ledger for n nodes.
func NewTraffic(n int) Traffic {
	return Traffic{
		SentBytes:   make([]int64, n),
		SentMsgs:    make([]int64, n),
		RecvBytes:   make([]int64, n),
		MsgOverhead: DatagramOverhead,
	}
}

// Charge books one message of size encoded bytes sent by from and returns
// its charged size: size plus the per-message overhead.
//
//exspan:hotpath
func (t *Traffic) Charge(from types.NodeID, size int) int {
	size += t.MsgOverhead
	t.SentBytes[from] += int64(size)
	t.SentMsgs[from]++
	t.TotalBytes += int64(size)
	return size
}

// Recv books charged bytes arriving at node to.
func (t *Traffic) Recv(to types.NodeID, charged int) { t.RecvBytes[to] += int64(charged) }

// Reset zeroes every counter.
func (t *Traffic) Reset() {
	clear(t.SentBytes)
	clear(t.SentMsgs)
	clear(t.RecvBytes)
	t.TotalBytes = 0
}

// Clone returns a copy that shares no memory with t.
func (t *Traffic) Clone() Traffic {
	c := *t
	c.SentBytes, c.SentMsgs, c.RecvBytes = slices.Clone(t.SentBytes), slices.Clone(t.SentMsgs), slices.Clone(t.RecvBytes)
	return c
}

// AvgSentBytes reports the per-node average of bytes sent.
func (t *Traffic) AvgSentBytes() float64 {
	return float64(t.TotalBytes) / float64(len(t.SentBytes))
}
