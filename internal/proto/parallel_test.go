package proto

import (
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// Parallel-engine protocol runs: the plan runners partition each wide
// dependence level across a worker pool while the garbler streams every
// finished level's tables and the evaluator blocks only for the tables
// its next level needs — garbling, transfer and evaluation overlap in a
// pipeline, as tables flow through HAAC's table queues.

// run2PCMixed is run2PC with independent options per role, for the
// interop matrix (the wire format must not depend on the engine).
func run2PCMixed(t *testing.T, c *workloads.Workload, seed int64, gopts, eopts Options) {
	t.Helper()
	run2PCMixedOn(t, c, c.Build(), seed, gopts, eopts)
}

// run2PCMixedOn is run2PCMixed over an already built circuit, which a
// plan in either side's options must have been compiled from.
func run2PCMixedOn(t *testing.T, c *workloads.Workload, cir *circuit.Circuit, seed int64, gopts, eopts Options) {
	t.Helper()
	g, e := c.Inputs(seed)
	want := c.Reference(g, e)

	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	type res struct {
		bits []bool
		err  error
	}
	gch := make(chan res, 1)
	go func() {
		bits, err := RunGarbler(ga, cir, g, gopts)
		gch <- res{bits, err}
	}()
	ebits, err := RunEvaluator(ev, cir, e, eopts)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	gr := <-gch
	if gr.err != nil {
		t.Fatalf("garbler: %v", gr.err)
	}
	for i := range want {
		if gr.bits[i] != want[i] || ebits[i] != want[i] {
			t.Fatalf("output bit %d mismatch", i)
		}
	}
}

// TestPipelined2PCWorkloads re-runs the main workload suite with a
// 4-wide worker pool on both sides.
func TestPipelined2PCWorkloads(t *testing.T) {
	for _, w := range workloads.VIPSuiteSmall() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "BubbSt" || w.Name == "GradDesc" || w.Name == "Triangle" {
				t.Skip("large; pipelining covered by smaller workloads")
			}
			opts := Options{OT: ot.Insecure, Seed: 9, Workers: 4}
			run2PCMixed(t, &w, 5, opts, opts)
		})
	}
}

// TestPipelinedInteropMatrix checks every pairing of engine
// configurations produces the same result: the stream does not depend
// on how either side runs. "seq" is sequential, "offline" four workers
// wide, and "pipelined" two workers wide over a shared precompiled plan
// (the other two compile their own per call).
func TestPipelinedInteropMatrix(t *testing.T) {
	w := workloads.DotProduct(4, 16)
	plan, err := circuit.NewPlan(w.Build())
	if err != nil {
		t.Fatal(err)
	}
	seq := Options{OT: ot.Insecure, Seed: 3}
	off := Options{OT: ot.Insecure, Seed: 3, Workers: 4}
	pip := Options{OT: ot.Insecure, Seed: 3, Workers: 2, Plan: plan}
	modes := []struct {
		name string
		opts Options
	}{{"seq", seq}, {"offline", off}, {"pipelined", pip}}
	for _, g := range modes {
		for _, e := range modes {
			g, e := g, e
			t.Run(g.name+"->"+e.name, func(t *testing.T) {
				run2PCMixedOn(t, &w, plan.Circuit, 8, g.opts, e.opts)
			})
		}
	}
}

// TestPipelinedDHOT exercises the parallel engine under the full
// cryptographic OT.
func TestPipelinedDHOT(t *testing.T) {
	w := workloads.Millionaire(16)
	opts := Options{OT: ot.DH, Seed: 3, Workers: 4}
	run2PCMixed(t, &w, 77, opts, opts)
}

// TestPipelinedFixedKeyHasher runs the parallel engine under the
// batched fixed-key hasher shared by all workers.
func TestPipelinedFixedKeyHasher(t *testing.T) {
	w := workloads.AddN(16)
	opts := Options{
		OT: ot.Insecure, Seed: 5, Workers: 4,
		Hasher: gc.NewFixedKeyHasher([16]byte{7}),
	}
	run2PCMixed(t, &w, 4, opts, opts)
}

// TestPipelinedOverTCP runs the parallel engine across a real socket.
func TestPipelinedOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	w := workloads.Hamming(512)
	c := w.Build()
	g, e := w.Inputs(21)
	want := w.Reference(g, e)
	opts := Options{OT: ot.IKNP, Seed: 12, Workers: 4}

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		_, err = RunGarbler(conn, c, g, opts)
		done <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bits, err := RunEvaluator(conn, c, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatal("parallel TCP result mismatch")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedMismatchRejected: a mismatched circuit still fails fast
// with parallel runners and the garbler goroutine does not leak.
func TestPipelinedMismatchRejected(t *testing.T) {
	wg := workloads.AddN(8)
	we := workloads.AddN(16)
	cg, ce := wg.Build(), we.Build()
	g, _ := wg.Inputs(1)
	_, e := we.Inputs(1)

	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	errs := make(chan error, 1)
	opts := Options{OT: ot.Insecure, Seed: 2, Workers: 2}
	go func() {
		_, err := RunGarbler(ga, cg, g, opts)
		errs <- err
	}()
	if _, err := RunEvaluator(ev, ce, e, opts); err == nil {
		t.Fatal("evaluator accepted a mismatched circuit")
	}
	ev.Close() // unblock garbler
	<-errs
}

// TestPipelinedTransferStats: the instrumented byte counts hold with a
// parallel garbler facing a sequential evaluator.
func TestPipelinedTransferStats(t *testing.T) {
	w := workloads.DotProduct(8, 16)
	c := w.Build()
	g, e := w.Inputs(31)
	stats := &Stats{}
	opts := Options{OT: ot.Insecure, Seed: 17, Stats: stats, Workers: 4}

	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	gch := make(chan error, 1)
	go func() {
		_, err := RunGarbler(ga, c, g, opts)
		gch <- err
	}()
	if _, err := RunEvaluator(ev, c, e, Options{OT: ot.Insecure, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	if err := <-gch; err != nil {
		t.Fatal(err)
	}
	and, _, _ := c.CountOps()
	if min := int64(gc.MaterialSize * and); stats.BytesSent.Load() < min {
		t.Fatalf("garbler sent %d bytes, tables alone are %d", stats.BytesSent.Load(), min)
	}
}
