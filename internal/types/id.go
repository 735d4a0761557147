package types

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
)

// IDLen is the length in bytes of a provenance vertex identifier. The paper
// uses SHA-1 digests ("the 20-byte RLoc and RID attributes").
const IDLen = sha1.Size

// ID is a 20-byte SHA-1 digest identifying a vertex in the provenance graph:
// a VID for tuple vertices, an RID for rule-execution vertices.
type ID [IDLen]byte

// ZeroID is the all-zero digest; it is used as the null RID that marks base
// tuples in the prov relation.
var ZeroID ID

// IsZero reports whether the ID is the null digest.
func (id ID) IsZero() bool { return id == ZeroID }

// Hash is the digest's first eight bytes: the 64-bit hash a table finds a
// VID or RID by. A SHA-1 digest is uniform already, so it needs no mixing.
func (id *ID) Hash() uint64 { return binary.LittleEndian.Uint64(id[:8]) }

// String renders the full digest in hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short renders the first four bytes in hex, enough to disambiguate in
// examples and logs.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// HashBytes computes the SHA-1 digest of b.
func HashBytes(b []byte) ID { return sha1.Sum(b) }

// HashString computes the SHA-1 digest of s.
func HashString(s string) ID { return sha1.Sum([]byte(s)) }
