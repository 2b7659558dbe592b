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
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"sync"

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
// exploit — the win is staging both blocks through one scratch
// acquisition. Results must equal two individual Hash calls.
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
// The implementation runs on the aes128 T-table tier with pooled
// scratch: each tweak's key is expanded once into a worker-local
// Schedule and reused for every block hashed under it, so the batched
// Hash4 path pays two expansions for a garbled gate's four hashes (the
// schedule-reuse the paper's Half-Gate pipeline exploits) and no call
// allocates in steady state. Outputs are byte-identical to encrypting
// with crypto/aes — the wire format and golden vectors are unchanged.
type RekeyedHasher struct{}

// rkScratch is one worker's re-keyed hash scratch: the tweak-derived
// key, the expanded schedule it is reused through, and staging blocks
// for one batched pair. Stack arrays would be fine for the T-table
// calls, but pooling mirrors FixedKeyHasher and keeps the schedule —
// 176 bytes — off the stack of every gate.
type rkScratch struct {
	key     [aes128.KeySize]byte
	ks      aes128.Schedule
	in, out [2 * label.Size]byte
}

// rkPool is shared by all RekeyedHasher values: the construction has no
// per-instance state (the key is derived from the tweak alone), so the
// zero value stays usable everywhere and every worker draws from one
// pool, exactly like FixedKeyHasher's per-instance pool does for its
// workers.
var rkPool = sync.Pool{New: func() any { return new(rkScratch) }}

// expand derives K(tweak) and expands it into the scratch schedule —
// the per-gate re-keying cost the paper quantifies.
func (s *rkScratch) expand(tweak uint64) {
	binary.LittleEndian.PutUint64(s.key[0:8], tweak)
	binary.LittleEndian.PutUint64(s.key[8:16], ^tweak)
	s.ks.ExpandFrom(&s.key)
}

// hashPair hashes two labels under two tweaks, expanding the second key
// only when it differs — one batched two-block encryption when the
// tweaks match (the garbler's case), two single blocks otherwise.
func (s *rkScratch) hashPair(l0, l1 label.L, t0, t1 uint64) (label.L, label.L) {
	s.expand(t0)
	l0.Put(s.in[0:16])
	l1.Put(s.in[16:32])
	if t1 == t0 {
		s.ks.EncryptBlocksTo(s.out[:], s.in[:])
	} else {
		s.ks.EncryptTo(s.out[0:16], s.in[0:16])
		s.expand(t1)
		s.ks.EncryptTo(s.out[16:32], s.in[16:32])
	}
	return label.FromBytes(s.out[0:16]).Xor(l0), label.FromBytes(s.out[16:32]).Xor(l1)
}

// Hash implements Hasher.
func (RekeyedHasher) Hash(l label.L, tweak uint64) label.L {
	s := rkPool.Get().(*rkScratch)
	s.expand(tweak)
	l.Put(s.in[0:16])
	s.ks.EncryptTo(s.out[0:16], s.in[0:16])
	out := label.FromBytes(s.out[0:16]).Xor(l)
	rkPool.Put(s)
	return out
}

// Hash2 implements Hasher2: the evaluator's two hashes share one
// scratch acquisition and one schedule slot (each half re-keys it).
func (RekeyedHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	s := rkPool.Get().(*rkScratch)
	h0, h1 = s.hashPair(l0, l1, t0, t1)
	rkPool.Put(s)
	return
}

// Hash4 implements Hasher4: the garbler's four hashes use only two
// distinct keys (t0==t1 and t2==t3 in the half-gate tweak schedule), so
// each pair expands once and encrypts both blocks under the reused
// schedule.
func (RekeyedHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	s := rkPool.Get().(*rkScratch)
	h0, h1 = s.hashPair(l0, l1, t0, t1)
	h2, h3 = s.hashPair(l2, l3, t2, t3)
	rkPool.Put(s)
	return
}

// Name implements Hasher.
func (RekeyedHasher) Name() string { return "rekeyed" }

// FixedKeyHasher is the classic fixed-key construction (JustGarble
// style): H(L, t) = AES_K(2L xor t) xor 2L xor t with one global key.
// It is faster but, as the paper notes, offers weaker concrete security;
// it exists here to reproduce the §2.1 "+27.5%" re-keying overhead
// comparison.
type FixedKeyHasher struct {
	blk cipher.Block
	// scratch pools the AES in/out blocks. Stack arrays would escape
	// through the interface-typed Encrypt call (two heap allocations per
	// Hash4, measured), and struct fields would break pool-wide sharing;
	// pooled buffers keep the hasher concurrency-safe with zero
	// steady-state allocations.
	scratch sync.Pool
}

// fkScratch is one worker's hash scratch: four input and four output
// AES blocks.
type fkScratch struct {
	in, out [4 * label.Size]byte
}

// NewFixedKeyHasher builds a FixedKeyHasher with the given global key.
// The underlying AES block cipher is expanded once and is safe for
// concurrent use, so one hasher can be shared by a whole worker pool.
func NewFixedKeyHasher(key [16]byte) *FixedKeyHasher {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic("gc: aes.NewCipher: " + err.Error())
	}
	h := &FixedKeyHasher{blk: blk}
	h.scratch.New = func() any { return new(fkScratch) }
	return h
}

// double computes the 2L xor t input block of the fixed-key hash.
func double(l label.L, tweak uint64) label.L {
	return label.L{Lo: l.Lo<<1 ^ tweak, Hi: l.Hi<<1 | l.Lo>>63}
}

// Hash implements Hasher.
func (h *FixedKeyHasher) Hash(l label.L, tweak uint64) label.L {
	d := double(l, tweak)
	s := h.scratch.Get().(*fkScratch)
	d.Put(s.in[0:16])
	h.blk.Encrypt(s.out[0:16], s.in[0:16])
	out := label.FromBytes(s.out[0:16]).Xor(d)
	h.scratch.Put(s)
	return out
}

// Hash2 implements Hasher2: the evaluator's two blocks staged through
// the single expanded cipher with one pooled scratch acquisition.
func (h *FixedKeyHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	d0, d1 := double(l0, t0), double(l1, t1)
	s := h.scratch.Get().(*fkScratch)
	d0.Put(s.in[0:16])
	d1.Put(s.in[16:32])
	blk := h.blk
	blk.Encrypt(s.out[0:16], s.in[0:16])
	blk.Encrypt(s.out[16:32], s.in[16:32])
	h0 = label.FromBytes(s.out[0:16]).Xor(d0)
	h1 = label.FromBytes(s.out[16:32]).Xor(d1)
	h.scratch.Put(s)
	return
}

// Hash4 implements Hasher4: the four blocks of one AND gate are staged
// through the single expanded cipher using pooled scratch buffers, so a
// garbling worker pays no steady-state allocation and no per-hash
// interface dispatch.
func (h *FixedKeyHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	d0, d1, d2, d3 := double(l0, t0), double(l1, t1), double(l2, t2), double(l3, t3)
	s := h.scratch.Get().(*fkScratch)
	d0.Put(s.in[0:16])
	d1.Put(s.in[16:32])
	d2.Put(s.in[32:48])
	d3.Put(s.in[48:64])
	blk := h.blk
	blk.Encrypt(s.out[0:16], s.in[0:16])
	blk.Encrypt(s.out[16:32], s.in[16:32])
	blk.Encrypt(s.out[32:48], s.in[32:48])
	blk.Encrypt(s.out[48:64], s.in[48:64])
	h0 = label.FromBytes(s.out[0:16]).Xor(d0)
	h1 = label.FromBytes(s.out[16:32]).Xor(d1)
	h2 = label.FromBytes(s.out[32:48]).Xor(d2)
	h3 = label.FromBytes(s.out[48:64]).Xor(d3)
	h.scratch.Put(s)
	return
}

// Name implements Hasher.
func (h *FixedKeyHasher) Name() string { return "fixed-key" }

// SoftFixedKeyHasher is FixedKeyHasher on the aes128 T-table tier
// instead of crypto/aes. It produces the same hashes (AES is AES) but
// pays software block costs, which makes it the matched-backend
// denominator for the re-keying overhead experiment: RekeyedHasher vs
// FixedKeyHasher confounds re-keying with hardware-vs-software AES on
// AES-NI hosts, while RekeyedHasher vs SoftFixedKeyHasher isolates the
// pure key-expansion surcharge the paper quantifies as +27.5%.
type SoftFixedKeyHasher struct {
	ks      aes128.Schedule
	scratch sync.Pool
}

// NewSoftFixedKeyHasher builds a SoftFixedKeyHasher with the given
// global key, expanded once at construction.
func NewSoftFixedKeyHasher(key [16]byte) *SoftFixedKeyHasher {
	h := &SoftFixedKeyHasher{}
	h.ks.ExpandFrom(&key)
	h.scratch.New = func() any { return new(fkScratch) }
	return h
}

// Hash implements Hasher.
func (h *SoftFixedKeyHasher) Hash(l label.L, tweak uint64) label.L {
	d := double(l, tweak)
	s := h.scratch.Get().(*fkScratch)
	d.Put(s.in[0:16])
	h.ks.EncryptTo(s.out[0:16], s.in[0:16])
	out := label.FromBytes(s.out[0:16]).Xor(d)
	h.scratch.Put(s)
	return out
}

// Hash2 implements Hasher2.
func (h *SoftFixedKeyHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (h0, h1 label.L) {
	d0, d1 := double(l0, t0), double(l1, t1)
	s := h.scratch.Get().(*fkScratch)
	d0.Put(s.in[0:16])
	d1.Put(s.in[16:32])
	h.ks.EncryptBlocksTo(s.out[0:32], s.in[0:32])
	h0 = label.FromBytes(s.out[0:16]).Xor(d0)
	h1 = label.FromBytes(s.out[16:32]).Xor(d1)
	h.scratch.Put(s)
	return
}

// Hash4 implements Hasher4.
func (h *SoftFixedKeyHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (h0, h1, h2, h3 label.L) {
	d0, d1, d2, d3 := double(l0, t0), double(l1, t1), double(l2, t2), double(l3, t3)
	s := h.scratch.Get().(*fkScratch)
	d0.Put(s.in[0:16])
	d1.Put(s.in[16:32])
	d2.Put(s.in[32:48])
	d3.Put(s.in[48:64])
	h.ks.EncryptBlocksTo(s.out[:], s.in[:])
	h0 = label.FromBytes(s.out[0:16]).Xor(d0)
	h1 = label.FromBytes(s.out[16:32]).Xor(d1)
	h2 = label.FromBytes(s.out[32:48]).Xor(d2)
	h3 = label.FromBytes(s.out[48:64]).Xor(d3)
	h.scratch.Put(s)
	return
}

// Name implements Hasher.
func (h *SoftFixedKeyHasher) Name() string { return "fixed-key-soft" }

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
