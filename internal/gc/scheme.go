// Package gc implements the garbling scheme HAAC accelerates: FreeXOR
// [Kolesnikov-Schneider] for XOR gates and the two-halves ("half-gate")
// construction [Zahur-Rosulek-Evans] for AND gates, using the re-keyed
// hash the paper adopts for security (§2.1): every AND gate derives two
// fresh AES keys from its gate index, paying two key expansions per gate
// exactly as HAAC's Half-Gate pipeline does.
//
// The package provides two engines over one scheme. Dense in-memory
// Garble/Evaluate is the reference: the compiler, simulator and
// byte-identity tests check against it. The plan runners
// (PlanGarbler/PlanEvaluator) execute a precompiled circuit.Plan,
// sequentially or across a worker pool, streaming tables level by
// level; they run every two-party execution in internal/proto.
package gc

import (
	"encoding/binary"
	"fmt"

	"haac/internal/aes128"
	"haac/internal/label"
)

// Material is the garbled table of one AND gate: the two half-gate rows.
// At 32 bytes per AND gate this is the paper's per-gate "table"
// constant, the unit of the accelerator's table stream.
type Material struct {
	TG, TE label.L
}

// MaterialSize is the byte size of one AND-gate table.
const MaterialSize = 2 * label.Size

// Bytes serializes the material (TG then TE, little-endian labels).
func (m Material) Bytes() [MaterialSize]byte {
	var b [MaterialSize]byte
	m.TG.Put(b[0:16])
	m.TE.Put(b[16:32])
	return b
}

// MaterialFromBytes deserializes a Material.
func MaterialFromBytes(b []byte) Material {
	return Material{
		TG: label.FromBytes(b[0:16]),
		TE: label.FromBytes(b[16:32]),
	}
}

// EncodeMaterials serializes src into dst at MaterialSize stride and
// returns the number of bytes written — the bulk form of Bytes used by
// the batched transport, which slab-encodes a whole level per Write
// instead of copying each table through a stack array. dst must hold at
// least MaterialSize*len(src) bytes.
func EncodeMaterials(dst []byte, src []Material) int {
	_ = dst[:MaterialSize*len(src)]
	for i, m := range src {
		m.TG.Put(dst[i*MaterialSize:])
		m.TE.Put(dst[i*MaterialSize+label.Size:])
	}
	return MaterialSize * len(src)
}

// DecodeMaterials deserializes len(dst) tables from src at MaterialSize
// stride and returns the number of bytes consumed.
func DecodeMaterials(dst []Material, src []byte) int {
	_ = src[:MaterialSize*len(dst)]
	for i := range dst {
		dst[i] = Material{
			TG: label.FromBytes(src[i*MaterialSize:]),
			TE: label.FromBytes(src[i*MaterialSize+label.Size:]),
		}
	}
	return MaterialSize * len(dst)
}

// Hasher computes the gate-tweakable hash H(L, tweak) used to encrypt
// half-gate rows. Implementations differ in how keys relate to tweaks.
type Hasher interface {
	Hash(l label.L, tweak uint64) label.L
	// Name identifies the construction for benchmarks/reporting.
	Name() string
}

// Hasher4 is an optional batched extension of Hasher: all four hashes of
// one AND gate in a single call, letting constructions with a reusable
// cipher stage the blocks through it without per-call overhead. The
// garbling engines use it when available; results must equal four
// individual Hash calls.
type Hasher4 interface {
	Hasher
	Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L)
}

// Hasher2 is the evaluator-side batched extension of Hasher: both
// hashes of one evaluated AND gate in a single call. The two tweaks are
// distinct (2j and 2j+1), so unlike Hash4 there is no key sharing to
// exploit — the win is hashing both blocks in one call (one fused
// two-key kernel for RekeyedHasher). Results must equal two individual
// Hash calls.
type Hasher2 interface {
	Hasher
	Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L)
}

// hash4 computes the four half-gate hashes of one AND gate, through the
// batched path when the hasher provides one.
func hash4(h Hasher, a0, a1, b0, b1 label.L, t0, t1 uint64) (ha0, ha1, hb0, hb1 label.L) {
	if b, ok := h.(Hasher4); ok {
		return b.Hash4(a0, a1, b0, b1, t0, t0, t1, t1)
	}
	return h.Hash(a0, t0), h.Hash(a1, t0), h.Hash(b0, t1), h.Hash(b1, t1)
}

// hash2 computes the two half-gate hashes of one evaluated AND gate,
// through the batched path when the hasher provides one.
func hash2(h Hasher, a, b label.L, t0, t1 uint64) (ha, hb label.L) {
	if b2, ok := h.(Hasher2); ok {
		return b2.Hash2(a, b, t0, t1)
	}
	return h.Hash(a, t0), h.Hash(b, t1)
}

// RekeyedHasher is the paper's secure construction: the AES key is the
// tweak (gate-index-derived), so every hash pays a key expansion —
// H(L, t) = AES_{K(t)}(L) XOR L. This is what HAAC's hardware pipeline
// implements (key expansion + AES per hash).
//
// The batched paths run one fused aes128 kernel per gate: on AES-NI
// hosts it expands both gate keys on the fly, interleaved with the
// encryption rounds, so no round key touches memory and no lookup is
// indexed by a secret. Hash4 encrypts the garbler's four blocks under
// the gate's two keys (two expansions per garbled gate, the schedule
// reuse the paper's Half-Gate pipeline exploits); Hash2 the evaluator's
// two blocks. Hosts without AES-NI take the portable T-table path,
// which is not constant-time. No call allocates, and outputs are
// byte-identical to encrypting with crypto/aes — the wire format and
// golden vectors are unchanged.
type RekeyedHasher struct{}

// tweakKey derives the gate key K(tweak) = LE(tweak) || LE(^tweak).
func tweakKey(tweak uint64) (k [aes128.KeySize]byte) {
	binary.LittleEndian.PutUint64(k[0:8], tweak)
	binary.LittleEndian.PutUint64(k[8:16], ^tweak)
	return k
}

// Hash implements Hasher.
func (RekeyedHasher) Hash(l label.L, tweak uint64) label.L {
	k := tweakKey(tweak)
	var ks aes128.Schedule
	ks.ExpandFrom(&k)
	var b [label.Size]byte
	l.Put(b[:])
	ks.EncryptTo(b[:], b[:])
	return label.FromBytes(b[:]).Xor(l)
}

// Hash2 implements Hasher2: the evaluator's two hashes, one block under
// each of two keys, in one fused kernel call.
func (RekeyedHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	ka, kb := tweakKey(t0), tweakKey(t1)
	var b [2 * label.Size]byte
	l0.Put(b[0:16])
	l1.Put(b[16:32])
	aes128.EncryptRekeyed2(&b, &b, &ka, &kb)
	return label.FromBytes(b[0:16]).Xor(l0), label.FromBytes(b[16:32]).Xor(l1)
}

// Hash4 implements Hasher4: the garbler's four hashes use only two
// distinct keys (t0==t1 and t2==t3 in the half-gate tweak schedule), so
// one fused kernel call expands each key once and encrypts two blocks
// under it. Other tweak patterns fall back to two Hash2 calls.
func (h RekeyedHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	if t0 != t1 || t2 != t3 {
		h0, h1 = h.Hash2(l0, l1, t0, t1)
		h2, h3 = h.Hash2(l2, l3, t2, t3)
		return
	}
	ka, kb := tweakKey(t0), tweakKey(t2)
	var b [4 * label.Size]byte
	l0.Put(b[0:16])
	l1.Put(b[16:32])
	l2.Put(b[32:48])
	l3.Put(b[48:64])
	aes128.EncryptRekeyed4(&b, &b, &ka, &kb)
	return label.FromBytes(b[0:16]).Xor(l0), label.FromBytes(b[16:32]).Xor(l1),
		label.FromBytes(b[32:48]).Xor(l2), label.FromBytes(b[48:64]).Xor(l3)
}

// Name implements Hasher.
func (RekeyedHasher) Name() string { return "rekeyed" }

// FixedKeyHasher is the classic fixed-key construction (JustGarble
// style): H(L, t) = AES_K(2L xor t) xor 2L xor t with one global key.
// It skips the per-gate key expansion but, as the paper notes, offers
// weaker concrete security; it exists here to reproduce the §2.1
// "+27.5%" re-keying overhead comparison, and internal/ot uses it as
// its correlation-robust row hash.
//
// It encrypts through the same aes128 path as RekeyedHasher (AES-NI
// where the CPU has it), so the two differ only by the key expansions.
// The schedule is expanded once and only read afterwards, so one
// hasher can be shared by a whole worker pool; no call allocates.
type FixedKeyHasher struct {
	ks aes128.Schedule
}

// NewFixedKeyHasher builds a FixedKeyHasher with the given global key.
func NewFixedKeyHasher(key [16]byte) *FixedKeyHasher {
	h := &FixedKeyHasher{}
	h.ks.ExpandFrom(&key)
	return h
}

// double computes the 2L xor t input block of the fixed-key hash.
func double(l label.L, tweak uint64) label.L {
	return label.L{Lo: l.Lo<<1 ^ tweak, Hi: l.Hi<<1 | l.Lo>>63}
}

// Hash implements Hasher.
func (h *FixedKeyHasher) Hash(l label.L, tweak uint64) label.L {
	d := double(l, tweak)
	var b [label.Size]byte
	d.Put(b[:])
	h.ks.EncryptTo(b[:], b[:])
	return label.FromBytes(b[:]).Xor(d)
}

// Hash2 implements Hasher2: the evaluator's two blocks in one batched
// encryption.
func (h *FixedKeyHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	d0, d1 := double(l0, t0), double(l1, t1)
	var b [2 * label.Size]byte
	d0.Put(b[0:16])
	d1.Put(b[16:32])
	h.ks.EncryptBlocksTo(b[:], b[:])
	return label.FromBytes(b[0:16]).Xor(d0), label.FromBytes(b[16:32]).Xor(d1)
}

// Hash4 implements Hasher4: the four blocks of one AND gate in one
// batched encryption.
func (h *FixedKeyHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	d0, d1, d2, d3 := double(l0, t0), double(l1, t1), double(l2, t2), double(l3, t3)
	var b [4 * label.Size]byte
	d0.Put(b[0:16])
	d1.Put(b[16:32])
	d2.Put(b[32:48])
	d3.Put(b[48:64])
	h.ks.EncryptBlocksTo(b[:], b[:])
	return label.FromBytes(b[0:16]).Xor(d0), label.FromBytes(b[16:32]).Xor(d1),
		label.FromBytes(b[32:48]).Xor(d2), label.FromBytes(b[48:64]).Xor(d3)
}

// Name implements Hasher.
func (h *FixedKeyHasher) Name() string { return "fixed-key" }

// GarbleAND garbles a single AND gate: given the input zero-labels and
// the FreeXOR offset it returns the gate's table and output zero-label.
// tweak must be unique per gate (HAAC uses the instruction's output
// wire address, which the PC determines). Exported for the HAAC
// compiler's program-order garbling.
func GarbleAND(h Hasher, a0, b0, r label.L, tweak uint64) (Material, label.L) {
	return garbleAND(h, a0, b0, r, tweak)
}

// EvalAND evaluates a single AND gate from the active input labels and
// the gate's table, under the same tweak used to garble it.
func EvalAND(h Hasher, a, b label.L, m Material, tweak uint64) label.L {
	return evalAND(h, a, b, m, tweak)
}

// garbleAND produces the two half-gate rows and the output zero-label
// for an AND gate with input zero-labels a0, b0 under offset r.
// Gate index j provides the two hash tweaks 2j and 2j+1.
func garbleAND(h Hasher, a0, b0, r label.L, j uint64) (Material, label.L) {
	pa := a0.Colour()
	pb := b0.Colour()
	a1 := a0.Xor(r)
	b1 := b0.Xor(r)
	t0, t1 := 2*j, 2*j+1

	ha0, ha1, hb0, hb1 := hash4(h, a0, a1, b0, b1, t0, t1)

	// Garbler half: handles the evaluator-known colour of wire A.
	tg := ha0.Xor(ha1)
	if pb == 1 {
		tg = tg.Xor(r)
	}
	wg := ha0
	if pa == 1 {
		wg = wg.Xor(tg)
	}

	// Evaluator half.
	te := hb0.Xor(hb1).Xor(a0)
	we := hb0
	if pb == 1 {
		we = we.Xor(te.Xor(a0))
	}

	return Material{TG: tg, TE: te}, wg.Xor(we)
}

// evalAND computes the output label from the two input labels and the
// gate's table, using the labels' colour bits to select rows. Both
// hashes go through the batched pair path when the hasher has one.
func evalAND(h Hasher, a, b label.L, m Material, j uint64) label.L {
	sa := a.Colour()
	sb := b.Colour()
	t0, t1 := 2*j, 2*j+1

	wg, we := hash2(h, a, b, t0, t1)
	if sa == 1 {
		wg = wg.Xor(m.TG)
	}
	if sb == 1 {
		we = we.Xor(m.TE.Xor(a))
	}
	return wg.Xor(we)
}

// checkHalfGates validates the construction over all four plaintext
// input combinations; used by tests and the package's own init-time
// self-check in debug builds.
func checkHalfGates(h Hasher, a0, b0, r label.L, j uint64) error {
	m, c0 := garbleAND(h, a0, b0, r, j)
	for va := 0; va < 2; va++ {
		for vb := 0; vb < 2; vb++ {
			a := a0
			if va == 1 {
				a = a.Xor(r)
			}
			b := b0
			if vb == 1 {
				b = b.Xor(r)
			}
			got := evalAND(h, a, b, m, j)
			want := c0
			if va&vb == 1 {
				want = want.Xor(r)
			}
			if got != want {
				return fmt.Errorf("gc: half-gate mismatch at a=%d b=%d", va, vb)
			}
		}
	}
	return nil
}
