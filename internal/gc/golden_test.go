package gc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"haac/internal/label"
	"haac/internal/workloads"
)

// Golden-vector regression tests for the half-gates scheme. The expected
// bytes were produced by the original straight-line implementation; any
// hasher batching or garbling-engine refactor that changes them has
// silently changed the scheme (and would break interop between parties
// running different builds).

var goldenA0 = label.L{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}
var goldenB0 = label.L{Lo: 0xdeadbeefcafebabe, Hi: 0x0f1e2d3c4b5a6978}
var goldenR = label.L{Lo: 0x1111111122222223, Hi: 0x8877665544332211} // colour bit set

var goldenFixedKey = [16]byte{0x5a, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// Per-gate vectors: garbleAND(a0, b0, r, j) -> (Material bytes, output
// zero-label) for both hasher constructions. Every vector test runs on
// both aes128 paths (onBothAESPaths), so the AES-NI kernels and the
// portable T-table fallback are pinned to the same bytes.
var goldenGates = []struct {
	hasher   string
	tweak    uint64
	material string // hex of Material.Bytes()
	c0       string // hex of the output zero-label
}{
	{"rekeyed", 0, "67ff741ce1cb44d83490d28f5a3fb8012550203b1f06aa9ded33ab7a0dec1a2f", "8e534e28af58ee2cac8939a11e176d72"},
	{"rekeyed", 7, "2e9f069c449038622d31d6c83558f00e712ad2ad32dfd59e9cbb0f0467879718", "ead1fb822f8bf6e04a4013ea148ec9ce"},
	{"rekeyed", 1 << 40, "bd91a9f4ddd66723a581fa4d723662f95657cba35a3e8b158d28445b0c26cbed", "81a58c4ac2adbe7d3bed537d5cc48c62"},
	{"fixed-key", 0, "0a1c702e93f344c9c3c0b3548ba9c924526e4ab450c37b8a3df01b4f9b38095f", "b17d3ecd0923f900b205d5b49db14e97"},
	{"fixed-key", 7, "29f9a703008bca649ad7b5d4ec53e9aafa43e2e90d3f7deb6e16d0e70c3c1400", "e8c4c84b4922e93a8ff3dfa632c02dd4"},
	{"fixed-key", 1 << 40, "1b09b99202d7f59daa367dc8fceee3c7f084fce55c4e7d099c87218f117f2a49", "c1c638dc34c46642542efe179366cd31"},
}

// Single-hash vectors: H(a0, 5) per construction.
var goldenHashes = map[string]string{
	"rekeyed":   "652aef2582ed43201fc2e2705c53ef98",
	"fixed-key": "2bfee9a21d66345bb96660ec94d0f2c6",
}

func goldenHasher(t *testing.T, name string) Hasher {
	t.Helper()
	switch name {
	case "rekeyed":
		return RekeyedHasher{}
	case "fixed-key":
		return NewFixedKeyHasher(goldenFixedKey)
	}
	t.Fatalf("unknown hasher %q", name)
	return nil
}

func TestGoldenHalfGateVectors(t *testing.T) {
	for _, g := range goldenGates {
		g := g
		t.Run(fmt.Sprintf("%s/j=%d", g.hasher, g.tweak), func(t *testing.T) {
			h := goldenHasher(t, g.hasher)
			onBothAESPaths(func(path string) {
				m, c0 := garbleAND(h, goldenA0, goldenB0, goldenR, g.tweak)
				mb := m.Bytes()
				if got := hex.EncodeToString(mb[:]); got != g.material {
					t.Errorf("%s: material = %s, golden %s", path, got, g.material)
				}
				if got := c0.String(); got != g.c0 {
					t.Errorf("%s: c0 = %s, golden %s", path, got, g.c0)
				}
				// The material must still evaluate correctly, so the vector
				// check catches garble/eval drifting together too.
				if err := checkHalfGates(h, goldenA0, goldenB0, goldenR, g.tweak); err != nil {
					t.Errorf("%s: %v", path, err)
				}
			})
		})
	}
}

func TestGoldenHashVectors(t *testing.T) {
	for name, want := range goldenHashes {
		h := goldenHasher(t, name)
		onBothAESPaths(func(path string) {
			if got := h.Hash(goldenA0, 5).String(); got != want {
				t.Errorf("%s/%s: H(a0,5) = %s, golden %s", name, path, got, want)
			}
		})
	}
}

// Whole-circuit digests: SHA-256 over the concatenated table stream of a
// deterministic garbling (seed 42). These pin down the table order, the
// tweak schedule and the label-source consumption order all at once.
var goldenDigests = []struct {
	workload string
	hasher   string
	tables   int
	sha      string
}{
	{"Hamm", "rekeyed", 120, "8b1f03ad92c57d6d338a7bd77020c154c260ce9ea82b60f0847db4145facb9ce"},
	{"Hamm", "fixed-key", 120, "97482c6cbfe95e99ab0e131c280e0278fd1fb0a843f117624342bb1a3a7764bd"},
	{"Mult-32", "rekeyed", 1024, "7411044a7acce581fb09ad0421f19d9a693145f804ca68fb7a026f63d061262e"},
	{"Mult-32", "fixed-key", 1024, "915789ae107deec9bab1f81681a6e0aa5d7abcd3009d04a2723262843f8943e3"},
}

const goldenDigestR = "956eeb2f2632d7bd03f166b233e3ef28"

func goldenWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	switch name {
	case "Hamm":
		return workloads.Hamming(64)
	case "Mult-32":
		return workloads.Mult32()
	}
	t.Fatalf("unknown workload %q", name)
	return workloads.Workload{}
}

func tableDigest(g *Garbled) string {
	sum := sha256.New()
	for _, m := range g.Tables {
		mb := m.Bytes()
		sum.Write(mb[:])
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func TestGoldenCircuitDigests(t *testing.T) {
	// goldenFixedKey differs here on purpose: the digests were generated
	// with a single-byte key to also pin the key-schedule handling.
	fk := NewFixedKeyHasher([16]byte{0x5a})
	for _, g := range goldenDigests {
		g := g
		t.Run(g.workload+"/"+g.hasher, func(t *testing.T) {
			var h Hasher = fk
			if g.hasher == "rekeyed" {
				h = RekeyedHasher{}
			}
			c := goldenWorkload(t, g.workload).Build()
			onBothAESPaths(func(path string) {
				garbled, err := Garble(c, h, label.NewSource(42))
				if err != nil {
					t.Fatal(err)
				}
				if len(garbled.Tables) != g.tables {
					t.Fatalf("%s: got %d tables, golden %d", path, len(garbled.Tables), g.tables)
				}
				if got := garbled.R.String(); got != goldenDigestR {
					t.Errorf("%s: R = %s, golden %s", path, got, goldenDigestR)
				}
				if got := tableDigest(garbled); got != g.sha {
					t.Errorf("%s: table digest = %s, golden %s", path, got, g.sha)
				}
			})
		})
	}
}
