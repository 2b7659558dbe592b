package main

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// A wrong expected output must count as a failed op, never as a timed
// success.
func TestOracleMismatchCountsAsFailure(t *testing.T) {
	sp, err := lookup("churn")
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(sp.wl, 7)
	st, err := deploy(sp, in, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	// Client 0 only ever uses even input sets: corrupt all of them.
	for i := 0; i < len(in.want); i += numClients {
		w := slices.Clone(in.want[i])
		w[0] = !w[0]
		st.in.want[i] = w
	}
	w, err := st.measure(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if w.wrong == 0 || w.failures != w.wrong {
		t.Fatalf("wrong=%d failures=%d, want every failure to be an oracle mismatch and at least one", w.wrong, w.failures)
	}
	if len(w.lat) != w.attempts-w.failures {
		t.Fatalf("%d latency samples for %d successful ops", len(w.lat), w.attempts-w.failures)
	}
	if w.attempts-w.failures == 0 {
		t.Fatal("client 1's untouched ops should have succeeded")
	}
}

// The exact per-layer counts repeat identically across two traced runs
// of the same workload and seed.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"circuit.plan_builds", "circuit.peak_live_slots", "gc.hash_calls_per_op",
		"proto.bytes_per_and", "ot.bytes_per_ot"}
	for _, name := range []string{"steady", "churn", "wide"} {
		t.Run(name, func(t *testing.T) {
			sp, err := lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var runs []*result
			for i := 0; i < 2; i++ {
				res, _, err := traced(sp, 3, time.Second, filepath.Join(t.TempDir(), "spans.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run %d: correct=%v failed=%d", i, res.Correct, res.Failed)
				}
				runs = append(runs, res)
			}
			and, _, _ := sp.wl.Build().CountOps()
			if v := runs[0].Metrics["gc.hash_calls_per_op"].Value; v != float64(and) {
				t.Errorf("gc.hash_calls_per_op = %v, want one Hash4 per AND = %d", v, and)
			}
			if v := runs[0].Metrics["circuit.plan_builds"].Value; v != 2 {
				t.Errorf("circuit.plan_builds = %v, want 2 (client plan + one server cache build)", v)
			}
			for _, k := range exact {
				if a, b := runs[0].Metrics[k].Value, runs[1].Metrics[k].Value; a != b {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
			// Base-OT rounds are exact too: two per on-demand OT — every
			// churn op, and each pooled run that missed its pool.
			for i, res := range runs {
				got := res.Metrics["ot.base_rounds_per_op"].Value
				want := 2.0
				if sp.poolRuns > 0 {
					want = 2 * (1 - res.Metrics["ot.pool_hit_ratio"].Value)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("run %d: ot.base_rounds_per_op = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "steady", "-trace", "2"},
		{"-workload", "steady", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
