package proto

import (
	"net"
	"runtime"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// runPlanned2PC executes one in-process protocol run with independent options
// per role and checks the result against the workload reference.
func runPlanned2PC(t *testing.T, w workloads.Workload, c *circuit.Circuit, gOpts, eOpts Options) {
	t.Helper()
	g, e := w.Inputs(21)
	want := w.Reference(g, e)
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	type res struct {
		bits []bool
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		bits, err := RunGarbler(ga, c, g, gOpts)
		ch <- res{bits, err}
	}()
	out, err := RunEvaluator(ev, c, e, eOpts)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	gr := <-ch
	if gr.err != nil {
		t.Fatalf("garbler: %v", gr.err)
	}
	for i := range want {
		if out[i] != want[i] || gr.bits[i] != want[i] {
			t.Fatalf("output bit %d wrong (eval=%v garbler=%v want=%v)", i, out[i], gr.bits[i], want[i])
		}
	}
}

// TestPlanned2PCAllModes runs the protocol over every pairing of engine
// configurations — the wire format must be unchanged, so each side
// chooses its own. "planned" sides share one precompiled plan, "dense"
// sides hold only the circuit and compile a plan per call; "parallel"
// runs four workers wide and "pipelined" two.
func TestPlanned2PCAllModes(t *testing.T) {
	for _, w := range []workloads.Workload{workloads.DotProduct(4, 16), workloads.Hamming(128)} {
		c := w.Build()
		plan, err := circuit.NewPlan(c)
		if err != nil {
			t.Fatal(err)
		}
		base := Options{OT: ot.Insecure, Seed: 9}
		planned := base
		planned.Plan = plan
		plannedPar := planned
		plannedPar.Workers = 4
		plannedPipe := planned
		plannedPipe.Workers = 2

		cases := []struct {
			name         string
			gOpts, eOpts Options
		}{
			{"planned-both-sequential", planned, planned},
			{"planned-both-parallel", plannedPar, plannedPar},
			{"planned-both-pipelined", plannedPipe, plannedPipe},
			{"planned-garbler-dense-evaluator", planned, base},
			{"dense-garbler-planned-evaluator", base, planned},
			{"planned-pipelined-vs-dense-sequential", plannedPipe, base},
			{"dense-pipelined-vs-planned-sequential",
				Options{OT: ot.Insecure, Seed: 9, Workers: 2}, planned},
		}
		for _, tc := range cases {
			t.Run(w.Name+"/"+tc.name, func(t *testing.T) {
				runPlanned2PC(t, w, c, tc.gOpts, tc.eOpts)
			})
		}
	}
}

// TestPlannedRejectsForeignPlan: a plan compiled from a different
// circuit must fail fast on both roles.
func TestPlannedRejectsForeignPlan(t *testing.T) {
	c := workloads.DotProduct(4, 16).Build()
	other, err := circuit.NewPlan(workloads.Hamming(128).Build())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{OT: ot.Insecure, Seed: 3, Plan: other}
	ga, ev := net.Pipe()
	defer ga.Close()
	defer ev.Close()
	if _, err := RunGarbler(ga, c, make([]bool, c.GarblerInputs), opts); err == nil {
		t.Fatal("garbler accepted a plan for a different circuit")
	}
	if _, err := RunEvaluator(ev, c, make([]bool, c.EvaluatorInputs), opts); err == nil {
		t.Fatal("evaluator accepted a plan for a different circuit")
	}
}

// TestPlanned2PCSteadyStateAllocs: a planned two-party run stays O(1)
// allocations per circuit, like the dense transport, and never rebuilds
// the plan (the schedule + renaming are fully amortized).
func TestPlanned2PCSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	w := workloads.DotProduct(4, 16)
	c := w.Build()
	and, _, _ := c.CountOps()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	g, e := w.Inputs(5)
	opts := Options{OT: ot.Insecure, Seed: 7, Plan: plan}

	run := func() {
		ga, ev := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := RunGarbler(ga, c, g, opts)
			errc <- err
		}()
		if _, err := RunEvaluator(ev, c, e, opts); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		ga.Close()
		ev.Close()
	}
	run() // warm pools

	builds := circuit.PlanBuilds()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const reps = 5
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := circuit.PlanBuilds() - builds; got != 0 {
		t.Fatalf("planned runs rebuilt the plan %d times; reuse must compile zero", got)
	}
	perTable := float64(after.Mallocs-before.Mallocs) / reps / float64(and)
	if perTable > 0.5 {
		t.Fatalf("planned 2PC allocates %.2f times per table (%d ANDs)", perTable, and)
	}
}
