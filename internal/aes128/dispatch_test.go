package aes128

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
)

// Differential tests for the fast entry points: on every path the
// two-key kernels and the Schedule methods must equal crypto/aes and
// the portable T-table code, byte for byte.

// onBothPaths runs f on the CPU-selected path, then again with the
// portable T-table path forced, so the fallback stays tested on AES-NI
// hosts (elsewhere both runs take the T-table path).
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("cpu", f)
	restore := ForcePortable()
	defer restore()
	t.Run("portable", f)
}

// stdEncrypt encrypts src block by block under key with crypto/aes.
func stdEncrypt(t *testing.T, key *[KeySize]byte, src []byte) []byte {
	t.Helper()
	c, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(src))
	for off := 0; off < len(src); off += BlockSize {
		c.Encrypt(out[off:], src[off:off+BlockSize])
	}
	return out
}

const diffCases = 3000

func TestRekeyedKernelsDifferential(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < diffCases; i++ {
			var ka, kb [KeySize]byte
			rng.Read(ka[:])
			rng.Read(kb[:])
			if i%7 == 0 {
				kb = ka // the same key twice is a valid input
			}

			var src2, dst2 [2 * BlockSize]byte
			rng.Read(src2[:])
			want2 := append(stdEncrypt(t, &ka, src2[:16]), stdEncrypt(t, &kb, src2[16:])...)
			var tt2 [2 * BlockSize]byte
			rekeyedTTable(tt2[:], src2[:], &ka, &kb)
			EncryptRekeyed2(&dst2, &src2, &ka, &kb)
			if !bytes.Equal(dst2[:], want2) || dst2 != tt2 {
				t.Fatalf("case %d: EncryptRekeyed2 = %x, crypto/aes %x, T-table %x", i, dst2, want2, tt2)
			}
			EncryptRekeyed2(&src2, &src2, &ka, &kb)
			if src2 != dst2 {
				t.Fatalf("case %d: in-place EncryptRekeyed2 = %x, want %x", i, src2, dst2)
			}

			var src4, dst4 [4 * BlockSize]byte
			rng.Read(src4[:])
			want4 := append(stdEncrypt(t, &ka, src4[:32]), stdEncrypt(t, &kb, src4[32:])...)
			var tt4 [4 * BlockSize]byte
			rekeyedTTable(tt4[:], src4[:], &ka, &kb)
			EncryptRekeyed4(&dst4, &src4, &ka, &kb)
			if !bytes.Equal(dst4[:], want4) || dst4 != tt4 {
				t.Fatalf("case %d: EncryptRekeyed4 = %x, crypto/aes %x, T-table %x", i, dst4, want4, tt4)
			}
			EncryptRekeyed4(&src4, &src4, &ka, &kb)
			if src4 != dst4 {
				t.Fatalf("case %d: in-place EncryptRekeyed4 = %x, want %x", i, src4, dst4)
			}
		}
	})
}

func TestScheduleMethodsDifferential(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for i := 0; i < diffCases; i++ {
			var key [KeySize]byte
			rng.Read(key[:])
			var s, tt Schedule
			s.ExpandFrom(&key)
			tt.expandTTable(&key)
			if s != tt || s != Expand(&key) {
				t.Fatalf("case %d: ExpandFrom(%x) diverges from the T-table and reference schedules", i, key)
			}

			n := 1 + i%5
			src := make([]byte, n*BlockSize)
			rng.Read(src)
			want := stdEncrypt(t, &key, src)
			got := make([]byte, len(src))
			s.EncryptTo(got[:BlockSize], src[:BlockSize])
			if !bytes.Equal(got[:BlockSize], want[:BlockSize]) {
				t.Fatalf("case %d: EncryptTo = %x, want %x", i, got[:BlockSize], want[:BlockSize])
			}
			s.EncryptBlocksTo(got, src)
			ttOut := make([]byte, len(src))
			tt.encryptBlocksTTable(ttOut, src)
			if !bytes.Equal(got, want) || !bytes.Equal(got, ttOut) {
				t.Fatalf("case %d: EncryptBlocksTo(%d blocks) = %x, crypto/aes %x, T-table %x", i, n, got, want, ttOut)
			}
			s.EncryptBlocksTo(src, src)
			if !bytes.Equal(src, want) {
				t.Fatalf("case %d: in-place EncryptBlocksTo(%d blocks) = %x, want %x", i, n, src, want)
			}
		}
	})
}

// TestRekeyedKernelsFIPS197 runs the FIPS-197 example through every
// lane of both two-key kernels.
func TestRekeyedKernelsFIPS197(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		copy(key[:], fips197Key)
		var b2 [2 * BlockSize]byte
		copy(b2[0:], fips197Pt)
		copy(b2[16:], fips197Pt)
		EncryptRekeyed2(&b2, &b2, &key, &key)
		var b4 [4 * BlockSize]byte
		for off := 0; off < len(b4); off += BlockSize {
			copy(b4[off:], fips197Pt)
		}
		EncryptRekeyed4(&b4, &b4, &key, &key)
		for off := 0; off < len(b2); off += BlockSize {
			if !bytes.Equal(b2[off:off+BlockSize], fips197Ct) {
				t.Fatalf("EncryptRekeyed2 block %d = %x, want %x", off/BlockSize, b2[off:off+BlockSize], fips197Ct)
			}
		}
		for off := 0; off < len(b4); off += BlockSize {
			if !bytes.Equal(b4[off:off+BlockSize], fips197Ct) {
				t.Fatalf("EncryptRekeyed4 block %d = %x, want %x", off/BlockSize, b4[off:off+BlockSize], fips197Ct)
			}
		}
	})
}

func BenchmarkEncryptRekeyed2(b *testing.B) {
	var ka, kb [KeySize]byte
	var buf [2 * BlockSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ka[0], kb[0] = byte(i), byte(i+1)
		EncryptRekeyed2(&buf, &buf, &ka, &kb)
	}
}

func BenchmarkEncryptRekeyed4(b *testing.B) {
	var ka, kb [KeySize]byte
	var buf [4 * BlockSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ka[0], kb[0] = byte(i), byte(i+1)
		EncryptRekeyed4(&buf, &buf, &ka, &kb)
	}
}
