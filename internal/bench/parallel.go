package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// Parallel-garbling experiment: dense sequential garbling against the
// plan engine at several worker counts, and one-shot 2PC wall time with
// the plan engine sequential vs eight workers wide. This is the
// software counterpart of the paper's gate-engine scaling study
// (Fig. 8): levels expose the ILP, the worker pool plays the GEs.

// ParallelRow reports one workload's garbling throughput at several
// worker counts.
type ParallelRow struct {
	Name     string
	ANDGates int
	// SeqNs is the dense sequential gc.Garble wall time.
	SeqNs int64
	// WorkerNs maps worker count to gc.GarblePlan wall time over a
	// plan compiled beforehand.
	WorkerNs map[int]int64
	// Seq2PCNs and Par2PCNs are in-process one-shot 2PC wall times
	// (plan compile included) with the plan engine sequential vs eight
	// workers wide on both sides.
	Seq2PCNs int64
	Par2PCNs int64
}

// Speedup returns the parallel speedup at the given worker count.
func (r ParallelRow) Speedup(workers int) float64 {
	ns, ok := r.WorkerNs[workers]
	if !ok || ns == 0 {
		return 0
	}
	return float64(r.SeqNs) / float64(ns)
}

// parallelWorkerCounts are the pool widths the experiment sweeps.
var parallelWorkerCounts = []int{1, 2, 4, 8}

// ParallelGarbling measures the plan engine's worker pool against the
// dense sequential garbler on the widest workloads of the suite.
func (e *Env) ParallelGarbling() ([]ParallelRow, string, error) {
	names := map[string]bool{"DotProd": true, "MatMult": true, "Merse": true}
	h := gc.RekeyedHasher{}
	var rows []ParallelRow
	for _, w := range e.Scale.Suite() {
		if !names[w.Name] {
			continue
		}
		c := e.Circuit(w)
		p, err := circuit.NewPlan(c)
		if err != nil {
			return nil, "", err
		}
		and, _, _ := c.CountOps()
		row := ParallelRow{Name: w.Name, ANDGates: and, WorkerNs: map[int]int64{}}

		start := time.Now()
		if _, err := gc.Garble(c, h, label.NewSource(7)); err != nil {
			return nil, "", err
		}
		row.SeqNs = time.Since(start).Nanoseconds()

		for _, workers := range parallelWorkerCounts {
			start = time.Now()
			if _, err := gc.GarblePlan(p, h, label.NewSource(7), workers); err != nil {
				return nil, "", err
			}
			row.WorkerNs[workers] = time.Since(start).Nanoseconds()
		}

		seq2, err := time2PC(w, c, proto.Options{OT: ot.Insecure, Seed: 7})
		if err != nil {
			return nil, "", err
		}
		par2, err := time2PC(w, c, proto.Options{OT: ot.Insecure, Seed: 7, Workers: 8})
		if err != nil {
			return nil, "", err
		}
		row.Seq2PCNs, row.Par2PCNs = seq2.Nanoseconds(), par2.Nanoseconds()
		rows = append(rows, row)
	}

	header := []string{"Bench", "ANDs", "seq ms"}
	for _, wk := range parallelWorkerCounts {
		header = append(header, fmt.Sprintf("x%d", wk))
	}
	header = append(header, "2PC seq ms", "2PC pipe ms")
	var cells [][]string
	for _, r := range rows {
		row := []string{r.Name, fmt.Sprint(r.ANDGates), ms(time.Duration(r.SeqNs))}
		for _, wk := range parallelWorkerCounts {
			row = append(row, fmt.Sprintf("%.2f", r.Speedup(wk)))
		}
		row = append(row,
			ms(time.Duration(r.Seq2PCNs)),
			ms(time.Duration(r.Par2PCNs)))
		cells = append(cells, row)
	}
	s := table(header, cells)
	s += fmt.Sprintf("\n(xN columns are plan-engine speedups over dense sequential garbling; host has\n"+
		"%d CPU(s) — speedups track min(workers, CPUs) since the engine is compute-bound;\n"+
		"2PC columns are one-shot runs, plan compile included; \"pipe\" runs the plan engine\n"+
		"8 workers wide on both sides, each level's tables streamed as it completes)\n",
		runtime.NumCPU())
	return rows, s, nil
}

// time2PC runs one in-process 2PC execution over a pipe and returns its
// wall time.
func time2PC(w workloads.Workload, c *circuit.Circuit, opts proto.Options) (time.Duration, error) {
	g, e := w.Inputs(13)
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	errCh := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := proto.RunGarbler(ga, c, g, opts)
		errCh <- err
	}()
	if _, err := proto.RunEvaluator(ev, c, e, opts); err != nil {
		return 0, err
	}
	if err := <-errCh; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
