package fleet

import (
	"strings"
	"testing"

	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// TestFleetPooledSessionEndToEnd proves the precomputed-OT tier is
// end-to-end through the proxy: the pooled negotiation rides the two
// handshake frames the fleet relays verbatim, the refill and
// derandomization bytes traverse the splice opaquely, and steady-state
// runs spend zero base-OT rounds. The proxy counts the granted tier
// from the relayed reply byte; the backend counts the pool hits.
func TestFleetPooledSessionEndToEnd(t *testing.T) {
	w := workloads.DotProduct(3, 8)
	c := w.Build()
	specs := specsFor(w)
	srv, addr := launchServer(t, "127.0.0.1:0", specs)
	defer srv.Close()
	f, fleetAddr := startFleet(t, Config{
		Backends:      []Backend{{Addr: addr}},
		ProbeInterval: -1,
	})

	m := c.EvaluatorInputs
	const runs = 5
	// Twice the run window's demand: the pool never falls below one
	// run's demand, so no run tops it up and the counters below are
	// deterministic (mirrors the server-layer steady-state test).
	sess, err := server.Dial(fleetAddr, w.Name, c, server.Options{PoolSize: 2 * runs * m})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if !sess.Pooled() {
		t.Fatal("pooled tier did not survive the proxied handshake")
	}
	if lvl := sess.PoolLevel(); lvl != 2*runs*m {
		t.Fatalf("pool level after proxied dial = %d, want %d", lvl, 2*runs*m)
	}

	rounds := ot.BaseOTRounds()
	for run := 0; run < runs; run++ {
		evalBits, want := oracle(t, w, c, int64(run))
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
	if got := ot.BaseOTRounds() - rounds; got != 0 {
		t.Errorf("base-OT rounds during proxied steady-state runs = %d, want 0", got)
	}
	cs := sess.Stats()
	if cs.PoolHits != runs || cs.PoolMisses != 0 {
		t.Errorf("client pool stats hits=%d misses=%d, want %d/0", cs.PoolHits, cs.PoolMisses, runs)
	}

	if st := f.Stats(); st.SessionsPooled != 1 {
		t.Errorf("fleet SessionsPooled = %d, want 1", st.SessionsPooled)
	}
	if metrics := f.MetricsText(); !strings.Contains(metrics, "haac_fleet_sessions_pooled_total 1") {
		t.Error("fleet /metrics missing haac_fleet_sessions_pooled_total 1")
	}

	sess.Close()
	srv.Close()
	if st := srv.Stats(); st.PoolHits != runs || st.PoolMisses != 0 {
		t.Errorf("backend pool stats hits=%d misses=%d, want %d/0", st.PoolHits, st.PoolMisses, runs)
	}
}
