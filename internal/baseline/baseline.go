// Package baseline provides the two denominators of the paper's
// evaluation: the software garbled-circuits CPU baseline (EMP Toolkit on
// an i7-10700K in the paper; our own Go garbler measured on the host
// here) and native plaintext execution (Fig. 10).
//
// Because absolute CPU numbers depend on the host, the package measures
// per-gate garbling/evaluation costs once with a calibration circuit and
// extrapolates by gate counts — the same first-order model the paper's
// "gates/second" comparisons use. The paper's published reference
// numbers are kept alongside so EXPERIMENTS.md can report both.
package baseline

import (
	"math"
	"time"

	"haac/internal/builder"
	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
)

// CPUModel is a per-gate cost model for software GC on the host.
type CPUModel struct {
	// NsPerAND and NsPerXOR are per-gate costs in nanoseconds.
	NsPerAND float64
	NsPerXOR float64
	// Hasher names the garbling hash that was measured.
	Hasher string
	// Evaluator indicates whether evaluation (vs garbling) was measured.
	Evaluator bool
}

// GCTime extrapolates the software GC time for a circuit.
func (m CPUModel) GCTime(s circuit.Stats) time.Duration {
	ns := float64(s.ANDGates)*m.NsPerAND + float64(s.Gates-s.ANDGates)*m.NsPerXOR
	return time.Duration(ns) * time.Nanosecond
}

// GatesPerSecond is the aggregate gate throughput on a given mix.
func (m CPUModel) GatesPerSecond(s circuit.Stats) float64 {
	t := m.GCTime(s).Seconds()
	if t == 0 {
		return 0
	}
	return float64(s.Gates) / t
}

// calibrationCircuit builds a mixed AND/XOR circuit big enough to time
// reliably: a chain of 32-bit multiplies.
func calibrationCircuit() *circuit.Circuit {
	b := builder.New()
	x := b.GarblerInputs(32)
	y := b.EvaluatorInputs(32)
	acc := x
	for i := 0; i < 8; i++ {
		acc = b.Mul(acc, y)
	}
	b.OutputWord(acc)
	return b.MustBuild()
}

// calibrationRuns is how many times MeasureCPU times each circuit.
const calibrationRuns = 20

// MeasureCPU times the software garbler (and optionally evaluator) on
// the host and solves for per-gate costs. The XOR cost is obtained from
// a second, XOR-only circuit. Both circuits run on the plan engine that
// executes every 2PC run (internal/gc PlanGarbler/PlanEvaluator), with
// the plan compiled and the runner built before timing — as a serving
// session reuses them — so circuit validation and allocation are not
// priced as gate work. Each circuit is timed as the fastest of
// calibrationRuns runs, so a GC cycle or a descheduling does not skew
// the per-gate numbers.
func MeasureCPU(h gc.Hasher, evaluator bool) CPUModel {
	mixed := calibrationCircuit()
	stats := mixed.ComputeStats()

	xorOnly := func() *circuit.Circuit {
		b := builder.New()
		x := b.GarblerInputs(64)
		w := x
		for i := 0; i < 400; i++ {
			nw := make(builder.Word, 64)
			for j := range nw {
				nw[j] = b.XOR(w[j], w[(j+13)%64])
			}
			w = nw
		}
		b.OutputWord(w)
		return b.MustBuild()
	}()
	xorStats := xorOnly.ComputeStats()

	timeGarble := func(c *circuit.Circuit) time.Duration {
		p, err := circuit.NewPlan(c)
		if err != nil {
			panic(err)
		}
		pg := gc.NewPlanGarbler(p, h, 1)
		run := func() {
			pg.Begin(label.NewSource(1))
			if _, err := pg.Run(nil); err != nil {
				panic(err)
			}
		}
		if evaluator {
			pg.Begin(label.NewSource(1))
			g, err := pg.Run(nil)
			if err != nil {
				panic(err)
			}
			in, err := g.EncodeInputs(c, make([]bool, c.GarblerInputs), make([]bool, c.EvaluatorInputs))
			if err != nil {
				panic(err)
			}
			pe := gc.NewPlanEvaluator(p, h, 1)
			run = func() {
				if _, err := pe.Eval(in, g.Tables); err != nil {
					panic(err)
				}
			}
		}
		run() // warm-up
		best := time.Duration(math.MaxInt64)
		for i := 0; i < calibrationRuns; i++ {
			start := time.Now()
			run()
			best = min(best, time.Since(start))
		}
		return best
	}

	xorTime := timeGarble(xorOnly)
	nsXOR := float64(xorTime.Nanoseconds()) / float64(xorStats.Gates)

	mixedTime := timeGarble(mixed)
	nonAND := float64(stats.Gates - stats.ANDGates)
	nsAND := (float64(mixedTime.Nanoseconds()) - nonAND*nsXOR) / float64(stats.ANDGates)
	if nsAND < nsXOR {
		nsAND = nsXOR // timing noise floor on tiny hosts
	}
	return CPUModel{NsPerAND: nsAND, NsPerXOR: nsXOR, Hasher: h.Name(), Evaluator: evaluator}
}

// PaperCPU holds reference throughputs from the paper for reporting
// next to host-measured numbers: EMP with AES-NI garbles tens of
// millions of gates per second; the paper's GPU comparison (§6.6) quotes
// 75 M gates/s for a GPU and 8.7 B gates/s for HAAC.
type PaperCPU struct {
	// AvgGCSlowdownVsPlain is the paper's 198,000x average CPU GC
	// slowdown over plaintext across VIP-Bench (§1).
	AvgGCSlowdownVsPlain float64
	// HAACSpeedupDDR4 and HAACSpeedupHBM2 are the headline geomean
	// speedups (§6.5).
	HAACSpeedupDDR4 float64
	HAACSpeedupHBM2 float64
	// GarblerVsEvaluatorCPU is the §6.1 "garbling is 11.9% slower".
	GarblerVsEvaluatorCPU float64
}

// PaperNumbers are the published values used in EXPERIMENTS.md.
var PaperNumbers = PaperCPU{
	AvgGCSlowdownVsPlain:  198000,
	HAACSpeedupDDR4:       589,
	HAACSpeedupHBM2:       2627,
	GarblerVsEvaluatorCPU: 1.119,
}

// TimePlain measures fn's wall time, repeating short runs for stability,
// and returns the per-execution duration.
func TimePlain(fn func()) time.Duration {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		el := time.Since(start)
		if el > 10*time.Millisecond || reps >= 1<<20 {
			return el / time.Duration(reps)
		}
		reps *= 4
	}
}
