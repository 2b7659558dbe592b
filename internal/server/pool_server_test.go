package server

import (
	"fmt"
	"strings"
	"testing"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/workloads"
)

// oracleRuns drives runs through sess and fails on any divergence from
// the plaintext oracle.
func oracleRuns(t *testing.T, sess *Session, w workloads.Workload, c *circuit.Circuit, garblerBits []bool, runs int) {
	t.Helper()
	for run := 0; run < runs; run++ {
		_, evalBits := w.Inputs(int64(run))
		want, err := c.Eval(garblerBits, evalBits)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(evalBits)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: output %d = %v, want %v", run, j, got[j], want[j])
			}
		}
	}
}

// TestPooledSessionServesFromPool is the tentpole's steady-state
// acceptance check at the serving layer: a session dialed with PoolSize
// pays its base OTs once at dial time, then every Run draws evaluator
// labels from the pool — zero base-OT rounds across the whole run
// window, every run a pool hit, outputs identical to the oracle.
func TestPooledSessionServesFromPool(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:     7,
	})

	m := c.EvaluatorInputs
	const runs = 6
	// 2*runs*m never drops below one run's demand, so no run tops the
	// pool up and the dial-time fill is the only refill.
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * runs * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Pooled() {
		t.Fatal("server did not grant the pooled tier")
	}
	if lvl := sess.PoolLevel(); lvl != 2*runs*m {
		t.Fatalf("pool level after dial = %d, want %d", lvl, 2*runs*m)
	}

	rounds := ot.BaseOTRounds()
	oracleRuns(t, sess, w, c, garblerBits, runs)
	if got := ot.BaseOTRounds() - rounds; got != 0 {
		t.Errorf("base-OT rounds during steady-state runs = %d, want 0", got)
	}
	cs := sess.Stats()
	if cs.PoolHits != runs || cs.PoolMisses != 0 || cs.PoolRefills != 1 {
		t.Errorf("client pool stats hits=%d misses=%d refills=%d, want %d/0/1",
			cs.PoolHits, cs.PoolMisses, cs.PoolRefills, runs)
	}
	if lvl := sess.PoolLevel(); lvl != runs*m {
		t.Errorf("pool level after %d runs = %d, want %d", runs, lvl, runs*m)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != runs || st.PoolMisses != 0 || st.PoolRefills != 1 {
		t.Errorf("server pool stats hits=%d misses=%d refills=%d, want %d/0/1",
			st.PoolHits, st.PoolMisses, st.PoolRefills, runs)
	}
	metrics := srv.metricsText()
	for _, want := range []string{
		fmt.Sprintf("haac_pool_hits_total %d", runs),
		"haac_pool_misses_total 0",
		"haac_pool_refills_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPooledSessionClampAndFallback: a server cap below one run's
// demand clamps the initial fill, the client stops asking (capped), and
// every run falls back to on-demand OT as a miss — correct outputs, no
// deadlock, the short pool never consumed.
func TestPooledSessionClampAndFallback(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	m := c.EvaluatorInputs
	srv, addr := startServer(t, Config{
		Circuits:    []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:        9,
		MaxPoolSize: m - 1, // one correlation short of a single run
	})

	const runs = 3
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 4 * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Pooled() {
		t.Fatal("server did not grant the pooled tier")
	}
	if lvl := sess.PoolLevel(); lvl != m-1 {
		t.Fatalf("clamped pool level = %d, want %d", lvl, m-1)
	}
	oracleRuns(t, sess, w, c, garblerBits, runs)
	cs := sess.Stats()
	if cs.PoolHits != 0 || cs.PoolMisses != runs || cs.PoolRefills != 1 {
		t.Errorf("client pool stats hits=%d misses=%d refills=%d, want 0/%d/1",
			cs.PoolHits, cs.PoolMisses, cs.PoolRefills, runs)
	}
	if lvl := sess.PoolLevel(); lvl != m-1 {
		t.Errorf("short pool was consumed: level %d, want %d", lvl, m-1)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != 0 || st.PoolMisses != runs {
		t.Errorf("server pool stats hits=%d misses=%d, want 0/%d", st.PoolHits, st.PoolMisses, runs)
	}
}

// TestPooledRefillRace drains a pool of two runs' worth every second
// run, so refills must keep pace with back-to-back runs. Run tops the
// pool up before the run can find it short: every run is a hit on
// both sides, no base OT runs after dial, and a top-up happens exactly
// when the level is below one run's demand — the dial fill plus one
// per two runs after it.
func TestPooledRefillRace(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	m := c.EvaluatorInputs
	srv, addr := startServer(t, Config{
		Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:     13,
	})

	const runs = 20
	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 2 * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rounds := ot.BaseOTRounds()
	oracleRuns(t, sess, w, c, garblerBits, runs)
	if got := ot.BaseOTRounds() - rounds; got != 0 {
		t.Errorf("base-OT rounds during runs = %d, want 0", got)
	}
	const refills = 1 + (runs-1)/2 // dial fill, then runs 3, 5, ..., 19
	cs := sess.Stats()
	if cs.PoolHits != runs || cs.PoolMisses != 0 || cs.PoolRefills != refills {
		t.Errorf("client pool stats hits=%d misses=%d refills=%d, want %d/0/%d",
			cs.PoolHits, cs.PoolMisses, cs.PoolRefills, runs, refills)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != runs || st.PoolMisses != 0 || st.PoolRefills != refills {
		t.Errorf("server pool stats hits=%d misses=%d refills=%d, want %d/0/%d",
			st.PoolHits, st.PoolMisses, st.PoolRefills, runs, refills)
	}
}

// TestPooledDeclinedFallsBack: a server running with DisablePooledOT
// accepts a pooled-requesting client unpooled; runs work on demand and
// no refill ever happens.
func TestPooledDeclinedFallsBack(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)
	srv, addr := startServer(t, Config{
		Circuits:        []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
		Seed:            15,
		DisablePooledOT: true,
	})

	sess, err := Dial(addr, w.Name, c, Options{PoolSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Pooled() {
		t.Fatal("session reports pooled against a DisablePooledOT server")
	}
	if lvl := sess.PoolLevel(); lvl != 0 {
		t.Fatalf("unpooled session holds a pool of %d", lvl)
	}
	oracleRuns(t, sess, w, c, garblerBits, 3)
	cs := sess.Stats()
	if cs.PoolHits != 0 || cs.PoolMisses != 0 || cs.PoolRefills != 0 {
		t.Errorf("unpooled session counted pool activity: %+v", cs)
	}

	sess.Close()
	srv.Close()
	st := srv.Stats()
	if st.PoolHits != 0 || st.PoolMisses != 0 || st.PoolRefills != 0 {
		t.Errorf("server counted pool activity on a declined tier: hits=%d misses=%d refills=%d",
			st.PoolHits, st.PoolMisses, st.PoolRefills)
	}
}

// TestChaosPooledDropMidRefill aims a deterministic connection drop at
// the pool-fill byte window of the dial-time fill (base OTs + fill
// stream) and of the first top-up inside Run, then lets random drops
// loose on a pooled session. All must heal through redial +
// re-handshake + fresh pool, with every run's output identical to the
// oracle.
func TestChaosPooledDropMidRefill(t *testing.T) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(1)

	t.Run("deterministic-mid-fill", func(t *testing.T) {
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:     23,
		})
		// The drop lands well past the ~77-byte handshake but inside the
		// first fill's base-OT + masked-column stream; DropOnce lets the
		// redial heal instead of tripping the same offset forever.
		dialer := &faultnet.Dialer{
			Plan:     faultnet.Plan{Seed: 31, DropAfterBytes: 2048},
			DropOnce: true,
		}
		sess, err := Dial(addr, w.Name, c, Options{
			PoolSize: 64,
			Retry:    chaosRetry(41),
			Dialer:   dialer.Dial,
		})
		if err != nil {
			t.Fatalf("dial never healed the mid-fill drop: %v", err)
		}
		defer sess.Close()
		if drops := dialer.Stats().Drops.Load(); drops == 0 {
			t.Fatal("no drop injected; the scenario proved nothing")
		}
		if !sess.Pooled() || sess.PoolLevel() != 64 {
			t.Fatalf("healed session: pooled=%v level=%d, want a full pool of 64", sess.Pooled(), sess.PoolLevel())
		}
		oracleRuns(t, sess, w, c, garblerBits, 3)
		if cs := sess.Stats(); cs.PoolHits != 3 {
			t.Errorf("healed pool hits = %d, want 3", cs.PoolHits)
		}
	})

	t.Run("deterministic-mid-topup", func(t *testing.T) {
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:     37,
		})
		m := c.EvaluatorInputs
		const perFill = 4 // runs one full pool serves; run perFill+1 tops up
		// A clean probe session measures the byte offset at which run
		// perFill+1 starts; the wire is deterministic in size, so the
		// faulty session reaches the same offset at the same point.
		var probe proto.Stats
		ps, err := Dial(addr, w.Name, c, Options{PoolSize: perFill * m, Stats: &probe})
		if err != nil {
			t.Fatal(err)
		}
		oracleRuns(t, ps, w, c, garblerBits, perFill)
		before := probe.BytesSent.Load() + probe.BytesReceived.Load()
		ps.Close()

		// Past the 6-byte opRefill request and its 5-byte grant, the
		// next op is the top-up's fill stream: the drop lands there.
		dialer := &faultnet.Dialer{
			Plan:     faultnet.Plan{Seed: 47, DropAfterBytes: before + 6 + 5},
			DropOnce: true,
		}
		sess, err := Dial(addr, w.Name, c, Options{
			PoolSize: perFill * m,
			Retry:    chaosRetry(53),
			Dialer:   dialer.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		oracleRuns(t, sess, w, c, garblerBits, perFill)
		if drops := dialer.Stats().Drops.Load(); drops != 0 {
			t.Fatalf("%d drops before the top-up run; the offset missed its window", drops)
		}
		oracleRuns(t, sess, w, c, garblerBits, 2*perFill)
		if drops := dialer.Stats().Drops.Load(); drops != 1 {
			t.Fatalf("drops = %d, want exactly 1", drops)
		}
		// The broken top-up is not counted; the redial's fresh fill
		// covers the replayed run, so the next top-up is at run 2*perFill+1:
		// dial fill + reconnect fill + one top-up.
		cs := sess.Stats()
		if cs.Reconnects != 1 || cs.Retries != 1 {
			t.Errorf("reconnects=%d retries=%d, want 1/1", cs.Reconnects, cs.Retries)
		}
		if want := uint64(3 * perFill); cs.PoolHits != want || cs.PoolMisses != 0 || cs.PoolRefills != 3 {
			t.Errorf("pool stats hits=%d misses=%d refills=%d, want %d/0/3",
				cs.PoolHits, cs.PoolMisses, cs.PoolRefills, want)
		}
	})

	t.Run("random-drops", func(t *testing.T) {
		_, addr := startServer(t, Config{
			Circuits: []CircuitSpec{{ID: w.Name, Circuit: c, Inputs: func() []bool { return garblerBits }}},
			Seed:     29,
		})
		dialer := &faultnet.Dialer{Plan: faultnet.Plan{Seed: 0xBEEF, DropRate: 0.02}}
		sess, err := Dial(addr, w.Name, c, Options{
			PoolSize: 48,
			Retry:    chaosRetry(43),
			Dialer:   dialer.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		oracleRuns(t, sess, w, c, garblerBits, 12)
		cs := sess.Stats()
		if cs.PoolHits+cs.PoolMisses != 12 {
			t.Errorf("hits+misses = %d+%d, want 12", cs.PoolHits, cs.PoolMisses)
		}
		t.Logf("random drops: injected=%d reconnects=%d hits=%d misses=%d refills=%d",
			dialer.Stats().Drops.Load(), cs.Reconnects, cs.PoolHits, cs.PoolMisses, cs.PoolRefills)
	})
}
