package gc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"haac/internal/circuit"
	"haac/internal/label"
	"haac/internal/workloads"
)

// mustPlan builds a plan or fails the test.
func mustPlan(t *testing.T, c *circuit.Circuit) *circuit.Plan {
	t.Helper()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPlanByteIdentity asserts the full dense-vs-planned contract on
// one circuit: identical Garbled (R, input zeros, tables, output zeros),
// identical output labels from evaluation, identical decoded bits —
// across sequential and parallel plan engines.
func checkPlanByteIdentity(t *testing.T, name string, c *circuit.Circuit, garbler, evaluator []bool, seed uint64) {
	t.Helper()
	h := RekeyedHasher{}
	p := mustPlan(t, c)

	want, err := Garble(c, h, label.NewSource(seed))
	if err != nil {
		t.Fatalf("%s: dense garble: %v", name, err)
	}
	got, err := GarblePlan(p, h, label.NewSource(seed), 1)
	if err != nil {
		t.Fatalf("%s: plan garble: %v", name, err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatalf("%s: plan garble differs from dense: %v", name, err)
	}
	for _, workers := range []int{2, 4} {
		gotP, err := GarblePlan(p, h, label.NewSource(seed), workers)
		if err != nil {
			t.Fatalf("%s/w=%d: %v", name, workers, err)
		}
		if err := equalGarbled(want, gotP); err != nil {
			t.Fatalf("%s/w=%d: parallel plan garble differs: %v", name, workers, err)
		}
	}

	in, err := want.EncodeInputs(c, garbler, evaluator)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seqOut, err := Evaluate(c, h, in, want.Tables)
	if err != nil {
		t.Fatalf("%s: dense eval: %v", name, err)
	}
	planOut, err := EvalPlan(p, h, in, want.Tables, 1)
	if err != nil {
		t.Fatalf("%s: plan eval: %v", name, err)
	}
	if len(planOut) != len(seqOut) {
		t.Fatalf("%s: plan eval returned %d labels, want %d", name, len(planOut), len(seqOut))
	}
	for i := range seqOut {
		if planOut[i] != seqOut[i] {
			t.Fatalf("%s: output label %d differs between dense and planned eval", name, i)
		}
	}
	parOut, err := EvalPlan(p, h, in, want.Tables, 4)
	if err != nil {
		t.Fatalf("%s: parallel plan eval: %v", name, err)
	}
	for i := range seqOut {
		if parOut[i] != seqOut[i] {
			t.Fatalf("%s: output label %d differs under parallel plan eval", name, i)
		}
	}

	denseBits, err := want.Decode(seqOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	planBits, err := got.Decode(planOut)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range denseBits {
		if planBits[i] != denseBits[i] {
			t.Fatalf("%s: decoded bit %d differs", name, i)
		}
	}
}

// TestPlanByteIdentityVIPSuite is the fixture half of the dense-vs-
// planned property: the full VIP suite, byte for byte, plus a peak-live
// sanity check on every workload.
func TestPlanByteIdentityVIPSuite(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		c := w.Build()
		g, e := w.Inputs(17)
		checkPlanByteIdentity(t, w.Name, c, g, e, 0xfeedface)

		p := mustPlan(t, c)
		if p.NumSlots >= c.NumWires {
			t.Errorf("%s: renaming did not compact (%d slots for %d wires)", w.Name, p.NumSlots, c.NumWires)
		}
	}
}

// TestPlanByteIdentityRandomCircuits is the randomized half: mixed
// AND/XOR/INV circuits with constants and shared fan-out, dense vs
// planned, byte for byte.
func TestPlanByteIdentityRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		c := circuit.RandomCircuit(rng)
		g := make([]bool, c.GarblerInputs)
		e := make([]bool, c.EvaluatorInputs)
		for i := range g {
			g[i] = rng.Intn(2) == 1
		}
		for i := range e {
			e[i] = rng.Intn(2) == 1
		}
		checkPlanByteIdentity(t, "random", c, g, e, uint64(trial)*2654435761+1)
	}
}

// TestPlanRunnerReuse exercises the steady-state path: one PlanGarbler /
// PlanEvaluator pair reused across runs with different seeds and inputs
// stays byte-identical to the dense engines on every run.
func TestPlanRunnerReuse(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	h := RekeyedHasher{}
	p := mustPlan(t, c)
	pg := NewPlanGarbler(p, h, 1)
	pe := NewPlanEvaluator(p, h, 1)

	for run := 0; run < 5; run++ {
		seed := uint64(1000 + run)
		g, e := w.Inputs(int64(run))

		want, err := Garble(c, h, label.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		pg.Begin(label.NewSource(seed))
		got, err := pg.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalGarbled(want, got); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}

		in, err := want.EncodeInputs(c, g, e)
		if err != nil {
			t.Fatal(err)
		}
		wantOut, err := Evaluate(c, h, in, want.Tables)
		if err != nil {
			t.Fatal(err)
		}
		gotOut, err := pe.Eval(in, got.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("run %d: output label %d differs", run, i)
			}
		}
	}
}

// TestPlanGarblerEmitChunks: the parallel plan garbler's emit hook
// produces contiguous gate-order chunks that concatenate to the tables.
func TestPlanGarblerEmitChunks(t *testing.T) {
	c := workloads.Hamming(128).Build()
	h := RekeyedHasher{}
	p := mustPlan(t, c)
	want, err := Garble(c, h, label.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Material
	chunks := 0
	pg := NewPlanGarbler(p, h, 4)
	defer pg.Close()
	pg.Begin(label.NewSource(5))
	got, err := pg.Run(func(tables []Material) error {
		streamed = append(streamed, tables...)
		chunks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want.Tables) {
		t.Fatalf("streamed %d tables, want %d", len(streamed), len(want.Tables))
	}
	for i := range streamed {
		if streamed[i] != want.Tables[i] {
			t.Fatalf("streamed table %d differs", i)
		}
	}
	if chunks < 2 {
		t.Fatalf("expected level-by-level chunking, got %d chunk(s)", chunks)
	}
}

// TestPlanEvalStreamBlocking drives the plan evaluator through a table
// stream released exactly as fast as each level asks for it.
func TestPlanEvalStreamBlocking(t *testing.T) {
	w := workloads.Mult32()
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(3)
	want := w.Reference(g, e)
	p := mustPlan(t, c)

	garbled, err := Garble(c, h, label.NewSource(23))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	released := 0
	need := func(n int) ([]Material, error) {
		if n > released {
			released = n // synchronous feeder: release exactly what is needed
		}
		return garbled.Tables[:released], nil
	}
	pe := NewPlanEvaluator(p, h, 1)
	out, err := pe.EvalStream(in, need)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := garbled.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

// TestPlanEvalTableCountMismatch mirrors the dense engines' stream
// exhaustion errors.
func TestPlanEvalTableCountMismatch(t *testing.T) {
	w := workloads.Millionaire(8)
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(1)
	p := mustPlan(t, c)
	garbled, err := Garble(c, h, label.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalPlan(p, h, in, garbled.Tables[:len(garbled.Tables)-1], 1); err == nil {
		t.Fatal("short table stream accepted")
	}
	if _, err := EvalPlan(p, h, in, append(append([]Material{}, garbled.Tables...), Material{}), 1); err == nil {
		t.Fatal("overlong table stream accepted")
	}
	if _, err := pgRunWithoutBegin(p, h); err == nil {
		t.Fatal("Run without Begin accepted")
	}
}

func pgRunWithoutBegin(p *circuit.Plan, h Hasher) (*Garbled, error) {
	return NewPlanGarbler(p, h, 1).Run(nil)
}

// TestPlanSteadyStateZeroAllocs is the acceptance criterion: plan-based
// sequential garble and eval of a precompiled circuit run with zero
// allocations per run once the runners and pools are warm.
func TestPlanSteadyStateZeroAllocs(t *testing.T) {
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

	pg := NewPlanGarbler(p, h, 1)
	src := label.NewSource(7)
	pg.Begin(src)
	garbled, err := pg.Run(nil) // warm pools
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	inputs, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	tables := append([]Material(nil), garbled.Tables...)

	garbleAllocs := testing.AllocsPerRun(20, func() {
		pg.Begin(src)
		if _, err := pg.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if garbleAllocs != 0 {
		t.Fatalf("plan garble allocates %.1f times per run in steady state, want 0", garbleAllocs)
	}

	pe := NewPlanEvaluator(p, h, 1)
	if _, err := pe.Eval(inputs, tables); err != nil { // warm
		t.Fatal(err)
	}
	evalAllocs := testing.AllocsPerRun(20, func() {
		if _, err := pe.Eval(inputs, tables); err != nil {
			t.Fatal(err)
		}
	})
	if evalAllocs != 0 {
		t.Fatalf("plan eval allocates %.1f times per run in steady state, want 0", evalAllocs)
	}
}

// parallelCircuits are the circuits the determinism suite sweeps:
// shallow-wide, deep-narrow and mixed shapes from the real workload
// generators.
func parallelCircuits() []workloads.Workload {
	return []workloads.Workload{
		workloads.Hamming(128),
		workloads.Mult32(),
		workloads.DotProduct(4, 16),
		workloads.Millionaire(16),
		workloads.ReLU(8, 16),
	}
}

func equalGarbled(a, b *Garbled) error {
	if a.R != b.R {
		return fmt.Errorf("R differs: %s vs %s", a.R, b.R)
	}
	if len(a.InputZeros) != len(b.InputZeros) {
		return fmt.Errorf("input count differs")
	}
	for i := range a.InputZeros {
		if a.InputZeros[i] != b.InputZeros[i] {
			return fmt.Errorf("input zero %d differs", i)
		}
	}
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("table count differs: %d vs %d", len(a.Tables), len(b.Tables))
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			return fmt.Errorf("table %d differs: %x vs %x", i, a.Tables[i].Bytes(), b.Tables[i].Bytes())
		}
	}
	if len(a.OutputZeros) != len(b.OutputZeros) {
		return fmt.Errorf("output count differs")
	}
	for i := range a.OutputZeros {
		if a.OutputZeros[i] != b.OutputZeros[i] {
			return fmt.Errorf("output zero %d differs", i)
		}
	}
	return nil
}

// TestParallelGarbleDeterminism: for every worker count the plan
// garbler's output is byte-identical to the dense reference Garble,
// across circuit shapes, seeds and both hashers.
func TestParallelGarbleDeterminism(t *testing.T) {
	hashers := []Hasher{RekeyedHasher{}, NewFixedKeyHasher([16]byte{9, 9})}
	for _, w := range parallelCircuits() {
		c := w.Build()
		p := mustPlan(t, c)
		for _, h := range hashers {
			for _, seed := range []uint64{1, 42, 0xfeedface} {
				want, err := Garble(c, h, label.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4, 8} {
					got, err := GarblePlan(p, h, label.NewSource(seed), workers)
					if err != nil {
						t.Fatalf("%s/%s/seed=%d/w=%d: %v", w.Name, h.Name(), seed, workers, err)
					}
					if err := equalGarbled(want, got); err != nil {
						t.Fatalf("%s/%s/seed=%d/w=%d: %v", w.Name, h.Name(), seed, workers, err)
					}
				}
			}
		}
	}
}

// TestParallelEvalMatchesSequential checks the evaluator side: the plan
// evaluator yields the same output labels as the dense Evaluate for
// every worker count, and the correct plaintext after decoding.
func TestParallelEvalMatchesSequential(t *testing.T) {
	h := RekeyedHasher{}
	for _, w := range parallelCircuits() {
		c := w.Build()
		p := mustPlan(t, c)
		g, e := w.Inputs(7)
		want := w.Reference(g, e)

		garbled, err := Garble(c, h, label.NewSource(11))
		if err != nil {
			t.Fatal(err)
		}
		in, err := garbled.EncodeInputs(c, g, e)
		if err != nil {
			t.Fatal(err)
		}
		seqOut, err := Evaluate(c, h, in, garbled.Tables)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 8} {
			parOut, err := EvalPlan(p, h, in, garbled.Tables, workers)
			if err != nil {
				t.Fatalf("%s/w=%d: %v", w.Name, workers, err)
			}
			for i := range seqOut {
				if parOut[i] != seqOut[i] {
					t.Fatalf("%s/w=%d: output label %d differs", w.Name, workers, i)
				}
			}
			bits, err := garbled.Decode(parOut)
			if err != nil {
				t.Fatalf("%s/w=%d: %v", w.Name, workers, err)
			}
			for i := range want {
				if bits[i] != want[i] {
					t.Fatalf("%s/w=%d: plaintext bit %d wrong", w.Name, workers, i)
				}
			}
		}
	}
}

// TestParallelGarbleStreamChunks checks the streaming hook of a
// sequential plan garbler: chunks are contiguous, one per AND level at
// most, cover the whole stream and match the dense tables.
func TestParallelGarbleStreamChunks(t *testing.T) {
	w := workloads.Hamming(128)
	c := w.Build()
	h := RekeyedHasher{}
	want, err := Garble(c, h, label.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, c)
	var streamed []Material
	chunks := 0
	pg := NewPlanGarbler(p, h, 1)
	pg.Begin(label.NewSource(5))
	got, err := pg.Run(func(tables []Material) error {
		streamed = append(streamed, tables...)
		chunks++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want.Tables) {
		t.Fatalf("streamed %d tables, want %d", len(streamed), len(want.Tables))
	}
	for i := range streamed {
		if streamed[i] != want.Tables[i] {
			t.Fatalf("streamed table %d differs", i)
		}
	}
	if chunks < 2 || chunks > p.Schedule.NumLevels() {
		t.Fatalf("expected level-by-level chunking, got %d chunk(s) over %d levels", chunks, p.Schedule.NumLevels())
	}
}

// TestParallelGarbleStreamEmitError checks an emit failure aborts a
// parallel plan garbler's run with the emit error wrapped, and that the
// runner garbles correctly again after the next Begin.
func TestParallelGarbleStreamEmitError(t *testing.T) {
	c := workloads.Hamming(128).Build()
	h := RekeyedHasher{}
	p := mustPlan(t, c)
	pg := NewPlanGarbler(p, h, 2)
	defer pg.Close()
	boom := fmt.Errorf("pipe broke")
	pg.Begin(label.NewSource(5))
	if _, err := pg.Run(func([]Material) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	want, err := Garble(c, h, label.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	pg.Begin(label.NewSource(5))
	got, err := pg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := equalGarbled(want, got); err != nil {
		t.Fatalf("run after an aborted run: %v", err)
	}
}

// TestParallelEvalStreamBlocking drives a parallel plan evaluator
// through a table source that releases tables incrementally from
// another goroutine, so levels block on tables still in flight.
func TestParallelEvalStreamBlocking(t *testing.T) {
	w := workloads.Mult32()
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(3)
	want := w.Reference(g, e)
	p := mustPlan(t, c)

	garbled, err := Garble(c, h, label.NewSource(23))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}

	// Feeder: release tables in small batches.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	released := 0
	go func() {
		for released < len(garbled.Tables) {
			mu.Lock()
			released += 37
			if released > len(garbled.Tables) {
				released = len(garbled.Tables)
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}()
	need := func(n int) ([]Material, error) {
		mu.Lock()
		defer mu.Unlock()
		for released < n {
			cond.Wait()
		}
		return garbled.Tables[:released], nil
	}

	pe := NewPlanEvaluator(p, h, 4)
	defer pe.Close()
	out, err := pe.EvalStream(in, need)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := garbled.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

// TestParallelEvalTableCountMismatch: a parallel plan evaluator rejects
// short and overlong table streams, like the sequential one.
func TestParallelEvalTableCountMismatch(t *testing.T) {
	w := workloads.Millionaire(8)
	c := w.Build()
	h := RekeyedHasher{}
	g, e := w.Inputs(1)
	p := mustPlan(t, c)
	garbled, err := Garble(c, h, label.NewSource(2))
	if err != nil {
		t.Fatal(err)
	}
	in, err := garbled.EncodeInputs(c, g, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvalPlan(p, h, in, garbled.Tables[:len(garbled.Tables)-1], 2); err == nil {
		t.Fatal("short table stream accepted")
	}
	if _, err := EvalPlan(p, h, in, append(append([]Material{}, garbled.Tables...), Material{}), 2); err == nil {
		t.Fatal("overlong table stream accepted")
	}
}
