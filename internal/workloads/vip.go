package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"haac/internal/builder"
	"haac/internal/circuit"
)

// BubbleSort sorts n width-bit unsigned integers (garbler input) with a
// bubble-sort compare-and-swap network and outputs the sorted array.
// Paper scale: n=245, width=32 lands near VIP-Bench BubbSt's 12.5M gates.
func BubbleSort(n, width int) Workload {
	return Workload{
		Name:        "BubbSt",
		Description: fmt.Sprintf("bubble sort of %d %d-bit integers", n, width),
		PlainOps:    3 * n * n / 2,
		Build: func() *circuit.Circuit {
			b := builder.New()
			arr := make([]builder.Word, n)
			for i := range arr {
				arr[i] = b.GarblerInputs(width)
			}
			// A fixed bubble network: data-oblivious, like the VIP-Bench
			// port (GC circuits cannot branch on data).
			for i := 0; i < n-1; i++ {
				for j := 0; j < n-1-i; j++ {
					arr[j], arr[j+1] = b.SortPair(arr[j], arr[j+1])
				}
			}
			for _, w := range arr {
				b.OutputWord(w)
			}
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits(randWords(rng, n, width), width), nil
		},
		Reference: func(g, e []bool) []bool {
			ws := bitsToWords(g, width)
			sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
			return wordsToBits(ws, width)
		},
	}
}

// DotProduct computes the inner product of two n-element width-bit
// vectors, one per party, truncated to width bits. Paper scale: two
// 128-element 32-bit vectors (§5).
func DotProduct(n, width int) Workload {
	return Workload{
		Name:        "DotProd",
		Description: fmt.Sprintf("dot product of two %d-element %d-bit vectors", n, width),
		PlainOps:    2 * n,
		Build: func() *circuit.Circuit {
			b := builder.New()
			x := make([]builder.Word, n)
			y := make([]builder.Word, n)
			for i := range x {
				x[i] = b.GarblerInputs(width)
			}
			for i := range y {
				y[i] = b.EvaluatorInputs(width)
			}
			acc := b.ZeroWord(width)
			for i := range x {
				acc = b.Add(acc, b.Mul(x[i], y[i]))
			}
			b.OutputWord(acc)
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits(randWords(rng, n, width), width),
				wordsToBits(randWords(rng, n, width), width)
		},
		Reference: func(g, e []bool) []bool {
			xs := bitsToWords(g, width)
			ys := bitsToWords(e, width)
			mask := uint64(1)<<uint(width) - 1
			var acc uint64
			for i := range xs {
				acc = (acc + xs[i]*ys[i]) & mask
			}
			return wordsToBits([]uint64{acc}, width)
		},
	}
}

// mt19937 reference: state init from seed, one partial twist, tempering.
const (
	mtMul     = 1812433253
	mtMatA    = 0x9908b0df
	mtUpper   = 0x80000000
	mtLower   = 0x7fffffff
	mtM       = 397
	mtTemperB = 0x9d2c5680
	mtTemperC = 0xefc60000
)

func mtRef(seed uint32, nInit, nOut int) []uint32 {
	mt := make([]uint32, nInit)
	mt[0] = seed
	for i := 1; i < nInit; i++ {
		s := seed ^ uint32(i)*0x9e3779b9
		mt[i] = mtMul*(s^(s>>30)) + uint32(i)
	}
	out := make([]uint32, nOut)
	for i := 0; i < nOut; i++ {
		y := mt[i]&mtUpper | mt[(i+1)%nInit]&mtLower
		next := mt[(i+mtM)%nInit] ^ y>>1
		if y&1 == 1 {
			next ^= mtMatA
		}
		y = next
		y ^= y >> 11
		y ^= y << 7 & mtTemperB
		y ^= y << 15 & mtTemperC
		y ^= y >> 18
		out[i] = y
	}
	return out
}

// Mersenne initializes an MT19937-style state of nInit words from a
// 32-bit garbler seed, performs a partial twist, and outputs nOut
// tempered words. The multiplies in the state initialization dominate
// the gate count, matching Merse's profile in Table 2 (~27% AND).
// Paper scale: nInit=624 (the full MT19937 state), nOut=32.
//
// Deviation from stock MT19937 (documented in DESIGN.md): state word i
// is seeded from seed^i directly rather than from the serial recurrence
// mt[i-1] -> mt[i]. The serial recurrence makes the whole benchmark one
// long dependence chain (ILP ~10), while VIP-Bench's Merse has ILP ~818;
// parallel seeding preserves the workload's arithmetic mix and restores
// the parallelism profile the paper's Fig. 6 reordering results rely on.
func Mersenne(nInit, nOut int) Workload {
	if nOut > nInit {
		panic("workloads: Mersenne nOut must be <= nInit")
	}
	return Workload{
		Name:        "Merse",
		Description: fmt.Sprintf("MT19937-style init of %d words + %d tempered outputs", nInit, nOut),
		PlainOps:    4*nInit + 8*nOut,
		Build: func() *circuit.Circuit {
			b := builder.New()
			seed := b.GarblerInputs(32)
			mulC := b.ConstWord(mtMul, 32)
			mt := make([]builder.Word, nInit)
			mt[0] = seed
			for i := 1; i < nInit; i++ {
				s := b.XORWords(seed, b.ConstWord(uint64(i)*0x9e3779b9, 32))
				t := b.XORWords(s, b.ShrConst(s, 30))
				mt[i] = b.Add(b.Mul(t, mulC), b.ConstWord(uint64(i), 32))
			}
			for i := 0; i < nOut; i++ {
				y := b.ORWords(b.ANDConst(mt[i], mtUpper), b.ANDConst(mt[(i+1)%nInit], mtLower))
				next := b.XORWords(mt[(i+mtM)%nInit], b.ShrConst(y, 1))
				// Conditional XOR with the constant matrix: per set bit of
				// mtMatA this is an XOR with y's LSB — no AND gates.
				matA := make(builder.Word, 32)
				for j := 0; j < 32; j++ {
					if uint32(mtMatA)>>uint(j)&1 == 1 {
						matA[j] = y[0]
					} else {
						matA[j] = b.Const(false)
					}
				}
				y = b.XORWords(next, matA)
				y = b.XORWords(y, b.ShrConst(y, 11))
				y = b.XORWords(y, b.ANDConst(b.ShlConst(y, 7), mtTemperB))
				y = b.XORWords(y, b.ANDConst(b.ShlConst(y, 15), mtTemperC))
				y = b.XORWords(y, b.ShrConst(y, 18))
				b.OutputWord(y)
			}
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits([]uint64{uint64(rng.Uint32())}, 32), nil
		},
		Reference: func(g, e []bool) []bool {
			seed := uint32(bitsToWords(g, 32)[0])
			out := mtRef(seed, nInit, nOut)
			ws := make([]uint64, len(out))
			for i, v := range out {
				ws[i] = uint64(v)
			}
			return wordsToBits(ws, 32)
		},
	}
}

// TriangleCount counts triangles in an undirected n-vertex graph whose
// upper-triangular adjacency bits are the garbler's input. The count is
// a popcount over all C(n,3) vertex triples. Paper scale: n=128.
func TriangleCount(n int) Workload {
	nEdges := n * (n - 1) / 2
	countWidth := 1
	for 1<<uint(countWidth) < n*(n-1)*(n-2)/6+1 {
		countWidth++
	}
	edgeIdx := func(i, j int) int { // i < j
		return i*(2*n-i-1)/2 + (j - i - 1)
	}
	return Workload{
		Name:        "Triangle",
		Description: fmt.Sprintf("triangle count over a %d-vertex graph (%d edge bits)", n, nEdges),
		PlainOps:    n * n * n / 6,
		Build: func() *circuit.Circuit {
			b := builder.New()
			adj := b.GarblerInputs(nEdges)
			var tri []builder.Wire
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					ij := adj[edgeIdx(i, j)]
					for k := j + 1; k < n; k++ {
						t := b.AND(b.AND(ij, adj[edgeIdx(j, k)]), adj[edgeIdx(i, k)])
						tri = append(tri, t)
					}
				}
			}
			b.OutputWord(b.ExtendZero(b.PopCount(tri), countWidth))
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			bits := make([]bool, nEdges)
			for i := range bits {
				bits[i] = rng.Intn(4) == 0 // sparse-ish graph
			}
			return bits, nil
		},
		Reference: func(g, e []bool) []bool {
			var count uint64
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !g[edgeIdx(i, j)] {
						continue
					}
					for k := j + 1; k < n; k++ {
						if g[edgeIdx(j, k)] && g[edgeIdx(i, k)] {
							count++
						}
					}
				}
			}
			return wordsToBits([]uint64{count}, countWidth)
		},
	}
}

// Hamming computes the Hamming distance between two bit vectors, one per
// party. Paper scale: 40960 bits (§5).
func Hamming(bits int) Workload {
	outWidth := 1
	for 1<<uint(outWidth) < bits+1 {
		outWidth++
	}
	return Workload{
		Name:        "Hamm",
		Description: fmt.Sprintf("Hamming distance over %d-bit vectors", bits),
		PlainOps:    bits / 16,
		Build: func() *circuit.Circuit {
			b := builder.New()
			x := b.GarblerInputs(bits)
			y := b.EvaluatorInputs(bits)
			diff := make([]builder.Wire, bits)
			for i := range diff {
				diff[i] = b.XOR(x[i], y[i])
			}
			b.OutputWord(b.ExtendZero(b.PopCount(diff), outWidth))
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			g := make([]bool, bits)
			e := make([]bool, bits)
			for i := range g {
				g[i] = rng.Intn(2) == 1
				e[i] = rng.Intn(2) == 1
			}
			return g, e
		},
		Reference: func(g, e []bool) []bool {
			var d uint64
			for i := range g {
				if g[i] != e[i] {
					d++
				}
			}
			return wordsToBits([]uint64{d}, outWidth)
		},
	}
}

// MatMult multiplies two n×n width-bit matrices, one per party, with
// width-bit truncating arithmetic. Paper scale: 8×8, 32-bit (§5).
func MatMult(n, width int) Workload {
	return Workload{
		Name:        "MatMult",
		Description: fmt.Sprintf("%d x %d matrix multiply, %d-bit", n, n, width),
		PlainOps:    2 * n * n * n,
		Build: func() *circuit.Circuit {
			b := builder.New()
			a := make([]builder.Word, n*n)
			c := make([]builder.Word, n*n)
			for i := range a {
				a[i] = b.GarblerInputs(width)
			}
			for i := range c {
				c[i] = b.EvaluatorInputs(width)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					acc := b.ZeroWord(width)
					for k := 0; k < n; k++ {
						acc = b.Add(acc, b.Mul(a[i*n+k], c[k*n+j]))
					}
					b.OutputWord(acc)
				}
			}
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return wordsToBits(randWords(rng, n*n, width), width),
				wordsToBits(randWords(rng, n*n, width), width)
		},
		Reference: func(g, e []bool) []bool {
			a := bitsToWords(g, width)
			c := bitsToWords(e, width)
			mask := uint64(1)<<uint(width) - 1
			out := make([]uint64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var acc uint64
					for k := 0; k < n; k++ {
						acc = (acc + a[i*n+k]*c[k*n+j]) & mask
					}
					out[i*n+j] = acc
				}
			}
			return wordsToBits(out, width)
		},
	}
}

// ReLU applies max(x, 0) to count signed width-bit integers from the
// evaluator. Paper scale: 2048 evaluations (§5); matches Table 2's
// profile (2 levels, ~97% AND — one mask AND per bit plus one INV).
func ReLU(count, width int) Workload {
	return Workload{
		Name:        "ReLU",
		Description: fmt.Sprintf("%d ReLU evaluations on %d-bit ints", count, width),
		PlainOps:    count,
		Build: func() *circuit.Circuit {
			b := builder.New()
			for i := 0; i < count; i++ {
				x := b.EvaluatorInputs(width)
				pos := b.NOT(x[width-1])
				out := make(builder.Word, width)
				for j := range out {
					out[j] = b.AND(x[j], pos)
				}
				b.OutputWord(out)
			}
			return b.MustBuild()
		},
		Inputs: func(seed int64) ([]bool, []bool) {
			rng := rand.New(rand.NewSource(seed))
			return nil, wordsToBits(randWords(rng, count, width), width)
		},
		Reference: func(g, e []bool) []bool {
			xs := bitsToWords(e, width)
			out := make([]uint64, len(xs))
			for i, x := range xs {
				if x>>(uint(width)-1)&1 == 0 {
					out[i] = x
				}
			}
			return wordsToBits(out, width)
		},
	}
}
