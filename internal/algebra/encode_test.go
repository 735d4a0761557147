package algebra

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// hostilePolys are well-formed prefixes followed by an attacker-chosen
// uvarint. Each used to kill the process: the old Decode narrowed the value
// to int before its bounds check (2^64-1 became -1 and passed) or handed it
// to make. A deployed node feeds KRuleResult payloads from the socket into
// Polynomial.IDB/Rule with no recover.
var hostilePolys = []struct {
	name string
	enc  []byte
}{
	// slice bounds out of range [35:34]
	{"base label length 2^64-1", append(append([]byte{byte(OpBase)}, make([]byte, types.IDLen+4)...),
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
	// slice bounds out of range [11:10]
	{"annotation length 2^64-1", []byte{byte(OpSum), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	// makeslice: cap out of range
	{"kid count 2^62", []byte{byte(OpProd), 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}},
}

func TestDecodeRejectsHostileLengths(t *testing.T) {
	for _, h := range hostilePolys {
		t.Run(h.name, func(t *testing.T) {
			if e, _, err := Decode(h.enc); err == nil {
				t.Errorf("Decode accepted %x as %s", h.enc, e)
			}
			if _, err := Check(h.enc); err == nil {
				t.Errorf("Check accepted %x", h.enc)
			}
			// The splice constructors are what a hop actually runs on it.
			if got := SpliceSum("", 0, [][]byte{h.enc}); !bytes.Equal(got, Zero().EncodePayload()) {
				t.Errorf("SpliceSum over %x = %x, want Zero", h.enc, got)
			}
		})
	}
}

// TestDecodeRejectsOverlongVarints: splicing forwards validated bytes
// verbatim, so an encoding must be the only spelling of its value — a length
// or count padded with a redundant continuation byte decodes under plain
// binary.Uvarint but would not re-encode to itself.
func TestDecodeRejectsOverlongVarints(t *testing.T) {
	pad := func(enc []byte, at int) []byte { // v -> v|0x80, 0x00
		out := append([]byte{}, enc[:at]...)
		out = append(out, enc[at]|0x80, 0)
		return append(out, enc[at+1:]...)
	}
	base := NewBase(baseN(1)).EncodePayload()
	sum := Sum("@a", NewBase(baseN(1)), NewBase(baseN(2))).EncodePayload()
	for name, enc := range map[string][]byte{
		"label length":      pad(base, 1+types.IDLen+4),
		"annotation length": pad(sum, 1),
		"kid count":         pad(sum, 1+1+len("@a")),
	} {
		if _, _, err := Decode(enc); err == nil {
			t.Errorf("%s: over-long varint accepted by Decode", name)
		}
		if _, err := Check(enc); err == nil {
			t.Errorf("%s: over-long varint accepted by Check", name)
		}
	}
}

// TestSpliceMatchesSumProd: composing on the wire form must produce exactly
// the bytes the tree constructors would — for random trees (whose kids
// include Zero and One, so every collapse rule fires) and for each collapse
// case spelled out.
func TestSpliceMatchesSumProd(t *testing.T) {
	check := func(rule string, loc types.NodeID, kids ...*Expr) {
		t.Helper()
		encs := make([][]byte, len(kids))
		for i, k := range kids {
			encs[i] = k.EncodePayload()
		}
		ann := rule + "@" + loc.String()
		if got, want := SpliceSum(rule, loc, encs), Sum(ann, kids...).EncodePayload(); !bytes.Equal(got, want) {
			t.Errorf("SpliceSum(%q, %v) = %x, Sum gives %x (%s)", ann, kids, got, want, Sum(ann, kids...))
		}
		if got, want := SpliceProd(rule, loc, encs), Prod(ann, kids...).EncodePayload(); !bytes.Equal(got, want) {
			t.Errorf("SpliceProd(%q, %v) = %x, Prod gives %x (%s)", ann, kids, got, want, Prod(ann, kids...))
		}
	}
	b1, b2 := NewBase(baseN(1)), NewBase(baseN(2))
	check("", 0)                      // no kids: Zero / One
	check("sp1", 3, b1)               // one kid stays wrapped: the annotation is never empty
	check("", 0, Zero(), Zero())      // all vanish from a sum; a zero kid zeroes a product
	check("r", 1, One(), One())       // all vanish from a product
	check("r", 1, b1, Zero(), b2)     // zero kid: dropped from the sum, absorbs the product
	check("r", 30, b1, One(), b2)     // one kid: kept in the sum, dropped from the product
	check("r", 1, Zero(), One())      // both at once
	check("r", -7, Sum("@b", b1, b2)) // node names outside a..z, nested kid
	check(string(make([]byte, 200)), 1<<30, b1, b2)

	rng := rand.New(rand.NewSource(11))
	leaf := func() *Expr {
		switch rng.Intn(6) {
		case 0:
			return Zero()
		case 1:
			return One()
		}
		return randPoly(rng, 3, 12)
	}
	for trial := 0; trial < 500; trial++ {
		kids := make([]*Expr, rng.Intn(5))
		for i := range kids {
			kids[i] = leaf()
		}
		check("r"+string(rune('0'+trial%10)), types.NodeID(rng.Intn(200)), kids...)
	}
}

// TestSpliceZeroOnCorruptKid: a hop validates what it forwards. A kid that
// is truncated, carries trailing bytes or is empty turns the result into
// Zero — wherever it sits among valid kids.
func TestSpliceZeroOnCorruptKid(t *testing.T) {
	good := Prod("sp2@b", NewBase(baseN(1)), NewBase(baseN(2))).EncodePayload()
	zero := Zero().EncodePayload()
	for name, bad := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0),
		"empty":     {},
		"bad tag":   {99},
	} {
		for pos := 0; pos < 3; pos++ {
			kids := [][]byte{good, good, good}
			kids[pos] = bad
			if got := SpliceSum("", 2, kids); !bytes.Equal(got, zero) {
				t.Errorf("%s kid at %d: SpliceSum = %x, want Zero", name, pos, got)
			}
			if got := SpliceProd("r", 2, kids); !bytes.Equal(got, zero) {
				t.Errorf("%s kid at %d: SpliceProd = %x, want Zero", name, pos, got)
			}
		}
	}
}

// figure3Poly is a real query result: POLYNOMIAL for bestPathCost(@a,c,5) on
// the Figure 3 MINCOST fixpoint, as returned to node d —
// <@a>(<sp3@a>(<@a>(<sp1@a>(<@a>(link(@a,c,5))) + <sp2@b>(...)))).
const figure3Poly = "010240610102057370334061010102406102020573703140610101024061010048a046ce70aed1cb584b33104129915924d5acda000000000c6c696e6b2840612c632c352902057370324062020102406201002a4e0568432d63f4e83e165cb5625bf63bd77b48000000010c6c696e6b2840622c612c332901024062010205737033406201010240620102057370314062010102406201002d67cdb9be299fb938e438fa8a3afa9d5daba707000000010c6c696e6b2840622c632c3229"

// FuzzDecodePolynomial feeds arbitrary bytes to the POLYNOMIAL payload
// decoders a query hop runs on results from other nodes. Properties:
//
//  1. No panic on any input.
//  2. Check accepts exactly what Decode accepts, with the same length.
//  3. An accepted input re-encodes to itself — the identity splicing relies
//     on when it forwards validated bytes instead of re-encoding a tree.
func FuzzDecodePolynomial(f *testing.F) {
	real, err := hex.DecodeString(figure3Poly)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(Zero().EncodePayload())
	f.Add(One().EncodePayload())
	f.Add(NewBase(baseN(3)).EncodePayload())
	f.Add([]byte{})
	for _, h := range hostilePolys {
		f.Add(h.enc)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, n, err := Decode(b)
		cn, cerr := Check(b)
		if (err == nil) != (cerr == nil) || n != cn {
			t.Fatalf("Decode (n=%d, err=%v) and Check (n=%d, err=%v) disagree on %x", n, err, cn, cerr, b)
		}
		if err != nil {
			return
		}
		if re := e.EncodePayload(); !bytes.Equal(re, b[:n]) {
			t.Fatalf("accepted %x re-encodes to %x", b[:n], re)
		}
	})
}
