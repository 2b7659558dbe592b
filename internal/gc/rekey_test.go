package gc

import (
	"math/rand"
	"sync"
	"testing"

	"haac/internal/label"
	"haac/internal/workloads"
)

// Equality and allocation regressions for the batched hash paths. The
// batched Hash2/Hash4 entry points must be drop-in replacements for
// individual Hash calls (the golden vectors pin the absolute outputs;
// these tests pin the batching itself on random inputs, on both aes128
// paths), and the re-keyed construction must hash with zero
// allocations: its keys, blocks and schedules all live on the stack.

// batchedHashers returns every hasher with a batched path.
func batchedHashers() []Hasher {
	key := [16]byte{0x5a, 9, 8, 7}
	return []Hasher{
		RekeyedHasher{},
		NewFixedKeyHasher(key),
	}
}

func randLabel(rng *rand.Rand) label.L {
	return label.L{Lo: rng.Uint64(), Hi: rng.Uint64()}
}

func TestHash4MatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, h := range batchedHashers() {
		h4, ok := h.(Hasher4)
		if !ok {
			t.Fatalf("%s does not implement Hasher4", h.Name())
		}
		h2 := h.(Hasher2)
		onBothAESPaths(func(path string) {
			for i := 0; i < 50; i++ {
				l0, l1, l2, l3 := randLabel(rng), randLabel(rng), randLabel(rng), randLabel(rng)
				// The garbler pattern (t0==t1, t2==t3), which takes the
				// fused two-key kernel, plus every mismatched pattern,
				// which must fall back to two Hash2 calls.
				t0 := rng.Uint64()
				t2 := rng.Uint64()
				tweaks := [][4]uint64{
					{t0, t0, t2, t2},
					{t0, t2, t0 + 1, t2 + 1},
					{t0, t0, t2, t2 + 1},
					{t0, t0 + 1, t2, t2},
				}
				for _, tw := range tweaks {
					g0, g1, g2, g3 := h4.Hash4(l0, l1, l2, l3, tw[0], tw[1], tw[2], tw[3])
					w0, w1 := h.Hash(l0, tw[0]), h.Hash(l1, tw[1])
					w2, w3 := h.Hash(l2, tw[2]), h.Hash(l3, tw[3])
					if g0 != w0 || g1 != w1 || g2 != w2 || g3 != w3 {
						t.Fatalf("%s/%s: Hash4%v diverges from individual hashes", h.Name(), path, tw)
					}
					p0, p1 := h2.Hash2(l0, l1, tw[0], tw[1])
					p2, p3 := h2.Hash2(l2, l3, tw[2], tw[3])
					if g0 != p0 || g1 != p1 || g2 != p2 || g3 != p3 {
						t.Fatalf("%s/%s: Hash4%v diverges from two Hash2 calls", h.Name(), path, tw)
					}
				}
			}
		})
	}
}

func TestHash2MatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, h := range batchedHashers() {
		h2, ok := h.(Hasher2)
		if !ok {
			t.Fatalf("%s does not implement Hasher2", h.Name())
		}
		onBothAESPaths(func(path string) {
			for i := 0; i < 50; i++ {
				l0, l1 := randLabel(rng), randLabel(rng)
				t0 := rng.Uint64()
				for _, t1 := range []uint64{t0, t0 + 1, rng.Uint64()} {
					g0, g1 := h2.Hash2(l0, l1, t0, t1)
					if w0, w1 := h.Hash(l0, t0), h.Hash(l1, t1); g0 != w0 || g1 != w1 {
						t.Fatalf("%s/%s: Hash2(t0=%d,t1=%d) diverges from individual hashes", h.Name(), path, t0, t1)
					}
				}
			}
		})
	}
}

// TestRekeyedHashNoSteadyStateAllocs pins the tentpole property: every
// re-keyed hash entry point runs allocation-free on both aes128 paths,
// with no scratch pool to warm.
func TestRekeyedHashNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := RekeyedHasher{}
	l0, l1, l2, l3 := label.L{Lo: 1}, label.L{Lo: 2}, label.L{Lo: 3}, label.L{Lo: 4}
	onBothAESPaths(func(path string) {
		if avg := testing.AllocsPerRun(100, func() { h.Hash(l0, 9) }); avg != 0 {
			t.Errorf("%s: Hash allocates %.1f times", path, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Hash2(l0, l1, 8, 9) }); avg != 0 {
			t.Errorf("%s: Hash2 allocates %.1f times", path, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Hash4(l0, l1, l2, l3, 8, 8, 9, 9) }); avg != 0 {
			t.Errorf("%s: Hash4 allocates %.1f times", path, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { h.Hash4(l0, l1, l2, l3, 8, 9, 10, 11) }); avg != 0 {
			t.Errorf("%s: Hash4 (mismatched tweaks) allocates %.1f times", path, avg)
		}
	})
}

// TestRekeyedGarbleEvalSteadyStateAllocs is the re-keyed twin of
// proto's fixed-key engine test: with stack-held schedules, building a plan
// runner and running it over a whole circuit allocates O(1) per circuit
// (the runner's arenas), never per gate.
func TestRekeyedGarbleEvalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	if and < 500 {
		t.Fatalf("workload too small to detect per-gate allocations (%d ANDs)", and)
	}
	h := RekeyedHasher{}
	p := mustPlan(t, c)

	garbled, err := Garble(c, h, label.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	garbleAllocs := testing.AllocsPerRun(10, func() {
		pg := NewPlanGarbler(p, h, 1)
		pg.Begin(label.NewSource(7))
		if _, err := pg.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if garbleAllocs > 50 {
		t.Fatalf("rekeyed garble loop allocates %.0f times for %d ANDs (want O(1) per circuit)", garbleAllocs, and)
	}

	evalAllocs := testing.AllocsPerRun(10, func() {
		if _, err := NewPlanEvaluator(p, h, 1).Eval(inputs, garbled.Tables); err != nil {
			t.Fatal(err)
		}
	})
	if evalAllocs > 50 {
		t.Fatalf("rekeyed eval loop allocates %.0f times for %d ANDs (want O(1) per circuit)", evalAllocs, and)
	}
}

// BenchmarkRekeyedHash4 measures the garbler's per-gate hashing: four
// hashes, two key expansions, zero allocations.
func BenchmarkRekeyedHash4(b *testing.B) {
	h := RekeyedHasher{}
	l0, l1, l2, l3 := label.L{Lo: 1}, label.L{Lo: 2}, label.L{Lo: 3}, label.L{Lo: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := uint64(2 * i)
		h.Hash4(l0, l1, l2, l3, t0, t0, t0+1, t0+1)
	}
}

// BenchmarkRekeyedHash2 measures the evaluator's per-gate hashing: two
// hashes under two distinct keys.
func BenchmarkRekeyedHash2(b *testing.B) {
	h := RekeyedHasher{}
	l0, l1 := label.L{Lo: 1}, label.L{Lo: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t0 := uint64(2 * i)
		h.Hash2(l0, l1, t0, t0+1)
	}
}

// BenchmarkRekeyedGarble garbles a whole circuit with the paper's
// re-keyed hash; allocs/op is O(1) per circuit (wire arrays), not per
// gate.
func BenchmarkRekeyedGarble(b *testing.B) {
	c := workloads.DotProduct(4, 16).Build()
	and, _, _ := c.CountOps()
	h := RekeyedHasher{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Garble(c, h, label.NewSource(7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
}

// BenchmarkRekeyedEval is the evaluator-side counterpart.
func BenchmarkRekeyedEval(b *testing.B) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	h := RekeyedHasher{}
	garbled, err := Garble(c, h, label.NewSource(7))
	if err != nil {
		b.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(c, h, inputs, garbled.Tables); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(and)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MAND/s")
}

// TestFixedKeyHasherConcurrent hammers one shared hasher from many
// goroutines; run under -race this proves the shared-cipher claim.
func TestFixedKeyHasherConcurrent(t *testing.T) {
	h := NewFixedKeyHasher([16]byte{42})
	l := label.L{Lo: 123, Hi: 456}
	want := h.Hash(l, 77)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if h.Hash(l, 77) != want {
					panic("fixed-key hash not stable under concurrency")
				}
			}
		}()
	}
	wg.Wait()
}
