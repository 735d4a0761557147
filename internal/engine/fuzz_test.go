package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/bdd"
	"repro/internal/ndlog"
	"repro/internal/types"
)

// hugePayloadLen is the uvarint encoding of 2^64-1 — as an int, -1. Appended
// as the payload length of an otherwise valid message it passed the decoder's
// old signed bounds check and panicked in make: one datagram killed a
// deployed node, whose receive loop feeds raw UDP payloads into DecodeMessage.
var hugePayloadLen = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// hostilePayloadMessage is a valid payload-free message with the payload flag
// forced on and hugePayloadLen where the length belongs.
func hostilePayloadMessage() []byte {
	b := (&Message{Tuple: types.NewTuple("p", types.Node(1), types.Int(2)), Delta: Insert,
		HasRef: true, RID: types.HashString("r"), RLoc: 7}).Encode(nil)
	b[0] |= flagPayload
	return append(b, hugePayloadLen...)
}

func TestDecodeMessageRejectsHugePayloadLength(t *testing.T) {
	if m, err := DecodeMessage(hostilePayloadMessage()); err == nil {
		t.Fatalf("payload length 2^64-1 accepted: %+v", m)
	}
	// One byte short of the declared length is still malformed; the exact
	// length decodes.
	b := (&Message{Tuple: types.NewTuple("p", types.Node(1)), Delta: Insert, Payload: []byte{1, 2, 3}}).Encode(nil)
	if _, err := DecodeMessage(b[:len(b)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodeMessage(b); err != nil {
		t.Fatalf("exact-length payload rejected: %v", err)
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the decoder behind the engine's
// UDP port. Properties:
//
//  1. No panic on any input (truncated, malformed, hostile).
//  2. A successful decode re-encodes to exactly WireSize() bytes, and those
//     bytes decode to an equal message. (The input itself need not be
//     reproduced: the decoder ignores trailing bytes and unknown flag bits.)
func FuzzDecodeMessage(f *testing.F) {
	seeds := []*Message{
		{Tuple: types.NewTuple("p", types.Node(1), types.Int(2)), Delta: Insert},
		{Tuple: types.NewTuple("pathCost", types.Node(1), types.Node(2), types.Int(5)), Delta: Delete,
			HasRef: true, RID: types.HashString("r"), RLoc: 7},
		{Tuple: types.NewTuple("q", types.Node(0), types.Str("x")), Delta: Update,
			HasRef: true, RID: types.HashString("s"), RLoc: 1, Payload: []byte{1, 2, 3, 4}},
		{Tuple: types.NewTuple("ruleExec", types.Node(2), types.IDVal(types.HashString("r")), types.Str("sp2"),
			types.List(types.IDVal(types.HashString("a")), types.IDVal(types.HashString("b")))), Delta: Insert, Payload: []byte{}},
	}
	for _, m := range seeds {
		f.Add(m.Encode(nil))
	}
	f.Add([]byte{})
	f.Add(hostilePayloadMessage())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		re := m.Encode(nil)
		if len(re) != m.WireSize() {
			t.Fatalf("re-encode is %d bytes, WireSize %d, for %s", len(re), m.WireSize(), m)
		}
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m, err)
		}
		if !m2.Tuple.Equal(m.Tuple) || m2.Delta != m.Delta || m2.HasRef != m.HasRef ||
			m2.RID != m.RID || m2.RLoc != m.RLoc ||
			(m2.Payload == nil) != (m.Payload == nil) || !bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", m2, m)
		}
	})
}

// arityMismatchMessage is the 8-byte engine message "insert link()": a known
// predicate with none of its three arguments. It decodes cleanly, and used
// to panic the receiving node — in every provenance mode and under both
// executors — when the relation indexed the missing attributes.
func arityMismatchMessage() []byte {
	b, err := hex.DecodeString("0001046c696e6b00")
	if err != nil {
		panic(err)
	}
	return b
}

// outOfClusterMessage inserts link(@0, 999, 1): well formed, but MINCOST's
// sp2 routes the derived head to node 999, outside any small cluster.
func outOfClusterMessage() []byte {
	return (&Message{Tuple: linkTup(0, 999, 1), Delta: Insert}).Encode(nil)
}

// badPayloadMessages insert link(@0,2,7) with a value-mode payload the BDD
// ring does not decode as a whole: garbage, and a valid encoding followed by
// one trailing byte. A value-mode node must drop both, not halt on them.
func badPayloadMessages() []*Message {
	m := bdd.New()
	valid := m.Encode(m.Var(bdd.Var{Node: 1}), nil)
	var out []*Message
	for _, p := range [][]byte{{0xde, 0xad, 0xbe, 0xef}, append(valid, 0)} {
		out = append(out, &Message{Tuple: linkTup(0, 2, 7), Delta: Insert,
			HasRef: true, RID: types.HashString("r"), RLoc: 1, Payload: p})
	}
	return out
}

// boundedTransport is refTransport for hostile input: a send to a node
// outside the cluster is dropped, as the UDP deployment drops it.
type boundedTransport struct{ *refTransport }

func (tr boundedTransport) Send(from, to types.NodeID, m *Message) {
	if to < 0 || int(to) >= len(tr.nodes) {
		return
	}
	tr.refTransport.Send(from, to, m)
}

// hostileCluster builds a converged 3-node line cluster of prog (links 0-1
// and 1-2).
func hostileCluster(prog *Program, mode ProvMode, batched bool) []*Node {
	tr := boundedTransport{&refTransport{}}
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = newNode(types.NodeID(i), prog, mode, tr, batched)
	}
	tr.nodes = nodes
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		nodes[e[0]].InsertBase(linkTup(e[0], e[1], 1))
		nodes[e[1]].InsertBase(linkTup(e[1], e[0], 1))
	}
	Settle(nodes...)
	return nodes
}

// handleHostile delivers m at node 0 of a hostileCluster as sent by node 1,
// then the same tuple as a delete, then runs the release protocol — the full
// life of a received delta.
func handleHostile(prog *Program, mode ProvMode, batched bool, m *Message) []*Node {
	nodes := hostileCluster(prog, mode, batched)
	nodes[0].HandleMessage(1, m)
	del := *m
	del.Delta = Delete
	nodes[0].HandleMessage(1, &del)
	Settle(nodes...)
	return nodes
}

// hostilePrograms are the programs FuzzHandleMessage feeds: MINCOST
// (aggregates, a remote head) and PATHVECTOR (list-valued attributes and
// builtins over them).
func hostilePrograms(tb testing.TB) []*Program {
	var progs []*Program
	for _, src := range []*ndlog.Program{apps.MinCost(), apps.PathVector()} {
		prog, err := Compile(src)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, prog)
	}
	return progs
}

var allModes = []ProvMode{ProvNone, ProvReference, ProvValue, ProvCentralized}

// TestHandleMessageDropsArityMismatch: a received tuple of a known predicate
// with the wrong number of arguments, or of a predicate the program does not
// declare (junk, eJunk) — or, in value mode, with a payload the ring does not
// decode as a whole — is dropped at the remote ingress, and the node keeps
// running. Other modes ignore the payload and take the tuple. A dropped
// insert leaves node 0's canonical state as it found it, and the local
// ingress (InsertBase, InjectEvent) drops an undeclared predicate alike.
func TestHandleMessageDropsArityMismatch(t *testing.T) {
	m, err := DecodeMessage(arityMismatchMessage())
	if err != nil {
		t.Fatal(err)
	}
	junk := types.NewTuple("junk", types.Node(0), types.Int(1))
	eJunk := types.NewTuple("eJunk", types.Node(0), types.Int(1))
	dropped := []*Message{m, {Tuple: junk, Delta: Insert}, {Tuple: eJunk, Delta: Insert}}
	prog := hostilePrograms(t)[0]
	for _, msg := range append(dropped, badPayloadMessages()...) {
		for _, mode := range allModes {
			for _, batched := range executors {
				cell := fmt.Sprintf("%s %s %s", msg.Tuple, mode, executorName(batched))
				nodes := handleHostile(prog, mode, batched, msg)
				for _, n := range nodes {
					if n.Err != nil {
						t.Fatalf("%s: node %s: %v", cell, n.ID, n.Err)
					}
				}
				if got := nodes[0].TupleCount("link"); got != 1 {
					t.Errorf("%s: node 0 holds %d links, want its one base link", cell, got)
				}
				nodes = hostileCluster(prog, mode, batched)
				untouched, held := StateDigest(nodes[:1]), nodes[0].TupleCount(msg.Tuple.Pred)
				nodes[0].HandleMessage(1, msg)
				Settle(nodes...)
				if slices.Contains(dropped, msg) {
					if StateDigest(nodes[:1]) != untouched || nodes[0].TupleCount(msg.Tuple.Pred) != held {
						t.Errorf("%s: the insert alone changed node 0's state", cell)
					}
					continue
				}
				want := 2
				if mode == ProvValue {
					want = 1
				}
				if got := nodes[0].TupleCount("link"); got != want || nodes[0].Err != nil {
					t.Errorf("%s: insert alone leaves %d links (err %v), want %d", cell, got, nodes[0].Err, want)
				}
			}
		}
	}
	for _, mode := range allModes {
		for _, batched := range executors {
			nodes := hostileCluster(prog, mode, batched)
			untouched, rows := StateDigest(nodes), nodes[0].Store.NumProv()
			nodes[0].InsertBase(junk)
			nodes[0].InjectEvent(eJunk)
			Settle(nodes...)
			if StateDigest(nodes) != untouched || nodes[0].Store.NumProv() != rows || nodes[0].TupleCount("junk") != 0 {
				t.Errorf("%s %s: InsertBase / InjectEvent of an undeclared predicate changed the cluster",
					mode, executorName(batched))
			}
		}
	}
}

// FuzzHandleMessage feeds every message DecodeMessage accepts to small MINCOST
// and PATHVECTOR clusters, in every provenance mode under both executors:
// delivered, then deleted, then released. Property: no panic — a received
// datagram may be refused, never kill the node.
func FuzzHandleMessage(f *testing.F) {
	f.Add(arityMismatchMessage())
	f.Add(outOfClusterMessage())
	f.Add((&Message{Tuple: linkTup(0, 2, 7), Delta: Insert}).Encode(nil))
	f.Add((&Message{Tuple: types.NewTuple("bestPathCost", types.Node(0), types.Node(2), types.Int(3)), Delta: Delete,
		HasRef: true, RID: types.HashString("r"), RLoc: 1}).Encode(nil))
	f.Add((&Message{Tuple: types.NewTuple("path", types.Node(0), types.Node(2),
		types.List(types.Node(0), types.Node(1), types.Node(2)), types.Int(2)), Delta: Insert}).Encode(nil))
	for _, m := range badPayloadMessages() {
		f.Add(m.Encode(nil))
	}
	progs := hostilePrograms(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		for _, prog := range progs {
			for _, mode := range allModes {
				for _, batched := range executors {
					handleHostile(prog, mode, batched, m)
				}
			}
		}
	})
}
