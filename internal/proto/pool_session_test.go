package proto

import (
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// poolPair sets up lockstep sender/receiver pools over the session
// pair's connection endpoints and attaches them.
func attachPools(t *testing.T, gs *GarblerSession, es *EvaluatorSession, ga, ev net.Conn, fill int) (*ot.Pool, *ot.Pool) {
	t.Helper()
	var sp *ot.Pool
	errc := make(chan error, 1)
	go func() {
		var err error
		sp, err = ot.NewSenderPool(ga, ot.Insecure)
		if err == nil && fill > 0 {
			err = sp.Fill(ga, fill)
		}
		errc <- err
	}()
	rp, err := ot.NewReceiverPool(ev, ot.Insecure)
	if err != nil {
		t.Fatalf("receiver pool: %v", err)
	}
	if fill > 0 {
		if err := rp.Fill(ev, fill); err != nil {
			t.Fatalf("receiver fill: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender pool: %v", err)
	}
	gs.SetPool(sp)
	es.SetPool(rp)
	return sp, rp
}

// TestSessionPooledRuns: runs served from attached pools match the
// oracle, consume the pools in lockstep, and fall back to the on-demand
// protocol — counted as misses — once the pool is short.
func TestSessionPooledRuns(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	m := c.EvaluatorInputs
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	// Enough for exactly two pooled runs; the third must miss.
	sp, rp := attachPools(t, gs, es, ga, ev, 2*m)

	for run := 0; run < 3; run++ {
		g, e := w.Inputs(int64(run))
		want, err := c.Eval(g, e)
		if err != nil {
			t.Fatal(err)
		}
		type res struct {
			out []bool
			err error
		}
		wantPooled := run < 2
		if gs.NextRunPooled() != wantPooled {
			t.Fatalf("run %d: NextRunPooled=%v, want %v", run, gs.NextRunPooled(), wantPooled)
		}
		ch := make(chan res, 1)
		go func() {
			out, err := gs.Run(g)
			ch <- res{append([]bool(nil), out...), err}
		}()
		out, err := es.Run(e)
		if err != nil {
			t.Fatalf("run %d: evaluator: %v", run, err)
		}
		gr := <-ch
		if gr.err != nil {
			t.Fatalf("run %d: garbler: %v", run, gr.err)
		}
		for i := range want {
			if out[i] != want[i] || gr.out[i] != want[i] {
				t.Fatalf("run %d output %d: eval=%v garb=%v want=%v", run, i, out[i], gr.out[i], want[i])
			}
		}
		if sp.Level() != rp.Level() {
			t.Fatalf("run %d: pool levels diverged %d/%d", run, sp.Level(), rp.Level())
		}
	}
	if sp.Level() != 0 {
		t.Fatalf("final level %d, want 0", sp.Level())
	}
}

// TestSessionResetDetachesPool: rebinding a session to a new connection
// must drop the pool — its correlations die with the old base-OT state.
func TestSessionResetDetachesPool(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	gs, es, ga, ev := sessionPairConns(t, w, ot.Insecure)
	attachPools(t, gs, es, ga, ev, 64)
	ga2, ev2 := net.Pipe()
	t.Cleanup(func() { ga2.Close(); ev2.Close() })
	gs.Reset(ga2, ot.Insecure)
	es.Reset(ev2)
	if gs.pool != nil || es.pool != nil {
		t.Fatal("Reset left a pool attached")
	}
	if gs.NextRunPooled() {
		t.Fatal("Reset left the next run pooled")
	}
}

// sessionPairConns is sessionPair but also returns the raw connection
// endpoints so pools can be negotiated over them.
func sessionPairConns(t *testing.T, w workloads.Workload, otp ot.Protocol) (*GarblerSession, *EvaluatorSession, net.Conn, net.Conn) {
	t.Helper()
	c := w.Build()
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	ga, ev := net.Pipe()
	t.Cleanup(func() { ga.Close(); ev.Close() })
	gs, err := NewGarblerSession(ga, Options{Plan: p, OT: otp, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEvaluatorSession(ev, c, Options{OT: otp, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gs.Close(); es.Close() })
	return gs, es, ga, ev
}
