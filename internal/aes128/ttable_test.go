package aes128

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTTableFIPS197Vector(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		copy(key[:], fips197Key)
		var s Schedule
		s.ExpandFrom(&key)
		got := make([]byte, BlockSize)
		s.EncryptTo(got, fips197Pt)
		if !bytes.Equal(got, fips197Ct) {
			t.Fatalf("FIPS-197 vector mismatch:\n got %x\nwant %x", got, fips197Ct)
		}
	})
}

func TestExpandFromMatchesExpand(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		f := func(key [KeySize]byte) bool {
			want := Expand(&key)
			var got Schedule
			got.ExpandFrom(&key)
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncryptToMatchesCryptoAES pins the fast path against the standard
// library on random key/plaintext pairs.
func TestEncryptToMatchesCryptoAES(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		f := func(key [KeySize]byte, pt [BlockSize]byte) bool {
			ref, err := aes.NewCipher(key[:])
			if err != nil {
				return false
			}
			want := make([]byte, BlockSize)
			ref.Encrypt(want, pt[:])
			var s Schedule
			s.ExpandFrom(&key)
			got := make([]byte, BlockSize)
			s.EncryptTo(got, pt[:])
			return bytes.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncryptToMatchesReference pins the fast path against the package's
// own byte-oriented reference implementation.
func TestEncryptToMatchesReference(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		f := func(key [KeySize]byte, pt [BlockSize]byte) bool {
			s := Expand(&key)
			want := make([]byte, BlockSize)
			Encrypt(&s, want, pt[:])
			got := make([]byte, BlockSize)
			s.EncryptTo(got, pt[:])
			return bytes.Equal(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEncryptBlocksTo(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var key [KeySize]byte
		rng.Read(key[:])
		var s Schedule
		s.ExpandFrom(&key)
		for _, blocks := range []int{0, 1, 2, 4, 7} {
			src := make([]byte, blocks*BlockSize)
			rng.Read(src)
			got := make([]byte, len(src))
			s.EncryptBlocksTo(got, src)
			want := make([]byte, len(src))
			for off := 0; off < len(src); off += BlockSize {
				s.EncryptTo(want[off:off+BlockSize], src[off:off+BlockSize])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d blocks: batched output diverges from per-block", blocks)
			}
		}
	})
}

func TestEncryptToInPlace(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		copy(key[:], fips197Key)
		var s Schedule
		s.ExpandFrom(&key)
		buf := make([]byte, BlockSize)
		copy(buf, fips197Pt)
		s.EncryptTo(buf, buf)
		if !bytes.Equal(buf, fips197Ct) {
			t.Fatalf("in-place fast-path encryption mismatch: %x", buf)
		}
	})
}

// TestFastPathNoAllocs: the re-keyed hot sequences (expand + two
// blocks, and both fused two-key kernels) must not allocate.
func TestFastPathNoAllocs(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		var s Schedule
		buf := make([]byte, 2*BlockSize)
		if avg := testing.AllocsPerRun(100, func() {
			key[0]++
			s.ExpandFrom(&key)
			s.EncryptBlocksTo(buf, buf)
		}); avg != 0 {
			t.Fatalf("expand+encrypt allocates %.1f times per re-key", avg)
		}
		var ka, kb [KeySize]byte
		var b2 [2 * BlockSize]byte
		var b4 [4 * BlockSize]byte
		if avg := testing.AllocsPerRun(100, func() {
			ka[0]++
			EncryptRekeyed2(&b2, &b2, &ka, &kb)
			EncryptRekeyed4(&b4, &b4, &ka, &kb)
		}); avg != 0 {
			t.Fatalf("two-key kernels allocate %.1f times per call pair", avg)
		}
	})
}

func BenchmarkExpandFrom(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s.ExpandFrom(&key)
	}
}

func BenchmarkEncryptTo(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	s.ExpandFrom(&key)
	buf := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.EncryptTo(buf, buf)
	}
}

// BenchmarkRekeyedBlock is the re-keyed gate pattern at the aes128
// level: one fresh schedule then two blocks under it (the garbler's
// per-tweak work). Compare with BenchmarkEncryptTo to see the pure key
// expansion surcharge the paper models as +27.5%.
func BenchmarkRekeyedBlock(b *testing.B) {
	var key [KeySize]byte
	var s Schedule
	buf := make([]byte, 2*BlockSize)
	b.SetBytes(2 * BlockSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		s.ExpandFrom(&key)
		s.EncryptBlocksTo(buf, buf)
	}
}
