// Command perfbench is the repository's benchmark. It runs the real 2PC
// serving stack — servers, the fleet proxy, client sessions, OT pools
// and the plan engines — in one process over loopback TCP, drives one
// of three closed-loop workloads with two concurrent clients, checks
// every output against the workload's plaintext Reference, and prints
// its metrics, ending with one JSON line:
//
//	perfbench -workload steady|churn|wide -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics of an untraced run.
// With -trace 1 it reports per-layer metrics: a traced full-stack pass
// (spans around Dial/Run/Close, counting transports and hasher) and a
// layer ladder that drives each layer's public entry points on their
// own. README.md lists every metric, the layer it belongs to and the
// workload where it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"haac/internal/circuit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times the trace-0 run sets the workload up;
// setup_s is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: steady, churn or wide")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "length of the measured closed loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookup(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("-trace must be 0 or 1 and -seconds positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var notes []string
	if *trace == 0 {
		res, notes, err = endToEnd(sp, *seed, d)
	} else {
		res, notes, err = traced(sp, *seed, d, filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", hostFacts())
	fmt.Fprintf(stdout, "workload %s seed %d: %d clients, closed loop, %s\n", sp.name, *seed, numClients, sp.wl.Description)
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// hostFacts is the context every result carries.
func hostFacts() string {
	return fmt.Sprintf("cpus=%d gomaxprocs=%d go=%s goarch=%s aesni=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, aesni())
}

// endToEnd sets the workload up setupRepeats times, keeps the last
// deployment, and measures one untraced window on it.
func endToEnd(sp *spec, seed int64, d time.Duration) (*result, []string, error) {
	in := makeInputs(sp.wl, seed)
	var setups []time.Duration
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		var err error
		if st, err = deploy(sp, in, seed, nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t))
	}
	defer st.close()
	w, err := st.measure(d)
	if err != nil {
		return nil, nil, err
	}
	n := float64(w.attempts)
	res := &result{
		Correct:   w.wrong == 0,
		Attempted: w.attempts,
		Failed:    w.failures,
		Metrics: map[string]metric{
			"setup_s":           {median(setups).Seconds(), "s"},
			"ops_per_s":         {float64(w.attempts-w.failures) / w.elapsed.Seconds(), "1/s"},
			"latency_ms_p50":    {ms(quantile(w.lat, 0.50)), "ms"},
			"cpu_ms_per_op":     {ms(w.cpu) / n, "ms"},
			"wire_bytes_per_op": {float64(w.wireBytes) / n, "B"},
			"allocs_per_op":     {float64(w.mallocs) / n, "count"},
			"peak_heap_mib":     {float64(w.peakHeap) / (1 << 20), "MiB"},
		},
	}
	notes := []string{
		fmt.Sprintf("error_rate %.6g (%d failed of %d attempted)", float64(w.failures)/n, w.failures, w.attempts),
		fmt.Sprintf("latency_ms_p99 %.6g (%d samples, %d beyond p99)", ms(quantile(w.lat, 0.99)),
			len(w.lat), len(w.lat)-int(math.Ceil(0.99*float64(len(w.lat))))),
	}
	if w.lastErr != nil {
		notes = append(notes, fmt.Sprintf("last failure: %v", w.lastErr))
	}
	return res, notes, nil
}

// traced measures an untraced and a traced window on fresh
// deployments — their ops/s ratio is the tracing overhead — and then
// climbs the layer ladder.
func traced(sp *spec, seed int64, d time.Duration, spanPath string) (*result, []string, error) {
	in := makeInputs(sp.wl, seed)
	st, err := deploy(sp, in, seed, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := st.measure(d / 2)
	st.close()
	if err != nil {
		return nil, nil, err
	}

	tr := &tracer{t0: time.Now()}
	builds0 := circuit.PlanBuilds()
	if st, err = deploy(sp, in, seed, tr); err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	w, err := st.measure(d / 2)
	builds := circuit.PlanBuilds() - builds0
	var spans []span
	for _, cl := range st.cls {
		spans = append(spans, cl.spans...)
	}
	st.close()
	if err != nil {
		return nil, nil, err
	}
	lad, err := runLadder(sp, in, seed, max(d/50, 10*time.Millisecond))
	if err != nil {
		return nil, nil, err
	}
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, nil, err
	}

	c := sp.wl.Build()
	nAND, _, _ := c.CountOps()
	and := float64(nAND)
	ops := float64(w.attempts)
	b, a := w.before, w.after
	runs := float64(a.srv.RunsServed - b.srv.RunsServed)
	cli, srv := a.client.sub(b.client), a.server.sub(b.server)
	hits, misses := a.cli.PoolHits-b.cli.PoolHits, a.cli.PoolMisses-b.cli.PoolMisses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	cacheRatio := 0.0
	if n := a.srv.CacheHits + a.srv.CacheMisses; n > 0 {
		cacheRatio = float64(a.srv.CacheHits) / float64(n)
	}

	// Self times per op, bottom-up. The top rung is the topology the
	// workload itself runs through; whatever the full stack's median op
	// takes beyond it, the ladder leaves unaccounted.
	gcOp := lad.garble + lad.eval
	otOp := lad.derand
	if sp.poolRuns == 0 {
		otOp = time.Duration(lad.dhUsPerOT * float64(c.EvaluatorInputs) * float64(time.Microsecond))
	}
	top := lad.direct.run
	if sp.viaFleet {
		top = lad.viaFleet.run
	}
	if sp.churn {
		top = lad.viaFleet.dial + lad.viaFleet.run + lad.viaFleet.close
	}
	var opSpans []time.Duration
	for _, s := range spans {
		if s.Name == "op" {
			opSpans = append(opSpans, time.Duration(s.EndNs-s.StartNs))
		}
	}
	opP50 := median(opSpans)
	untracedRate := float64(plain.attempts-plain.failures) / plain.elapsed.Seconds()
	tracedRate := float64(w.attempts-w.failures) / w.elapsed.Seconds()

	m := map[string]metric{
		"aes128.expand_ns": {lad.expandNs, "ns"},
		"aes128.block_ns":  {lad.blockNs, "ns"},

		"gc.garble_ns_per_and": {float64(lad.garble.Nanoseconds()) / and, "ns"},
		"gc.eval_ns_per_and":   {float64(lad.eval.Nanoseconds()) / and, "ns"},
		"gc.hash_ns_per_and":   {lad.hash4Ns + lad.hash2Ns, "ns"},
		"gc.hash_calls_per_op": {float64(a.hashCalls-b.hashCalls) / runs, "count"},
		"gc.aes_share": {(float64(lad.garbleCalls)*lad.hash4Ns + float64(lad.evalCalls)*lad.hash2Ns) /
			float64(gcOp.Nanoseconds()), "ratio"},
		"gc.allocs_per_op":  {lad.gcAllocs, "count"},
		"gc.self_ms_per_op": {ms(gcOp), "ms"},

		"circuit.plan_build_ms":   {ms(lad.planBuild), "ms"},
		"circuit.plan_builds":     {float64(builds), "count"},
		"circuit.peak_live_slots": {float64(lad.peakLive), "count"},

		"ot.base_rounds_per_op": {float64(a.baseOT-b.baseOT) / ops, "count"},
		"ot.dh_us_per_ot":       {lad.dhUsPerOT, "us"},
		"ot.fill_us_per_ot":     {lad.fillUsPerOT, "us"},
		"ot.derand_us_per_op":   {float64(lad.derand.Nanoseconds()) / 1e3, "us"},
		"ot.refills_per_op":     {float64(a.cli.PoolRefills-b.cli.PoolRefills) / ops, "count"},
		"ot.bytes_per_ot":       {lad.otBytesPer, "B"},
		"ot.pool_hit_ratio":     {hitRatio, "ratio"},
		"ot.self_ms_per_op":     {ms(otOp), "ms"},

		"proto.run_ms":               {ms(lad.protoRun), "ms"},
		"proto.self_ms_per_op":       {ms(lad.protoRun - gcOp - otOp), "ms"},
		"proto.read_wait_ms_per_op":  {float64(cli.readNs+srv.readNs) / 1e6 / ops, "ms"},
		"proto.write_wait_ms_per_op": {float64(cli.writeNs+srv.writeNs) / 1e6 / ops, "ms"},
		"proto.bytes_out_per_op":     {float64(cli.out) / ops, "B"},
		"proto.bytes_in_per_op":      {float64(cli.in) / ops, "B"},
		"proto.bytes_per_and":        {lad.protoBytesPerOp / and, "B"},
		"proto.reads_per_op":         {float64(cli.reads+srv.reads) / ops, "count"},
		"proto.writes_per_op":        {float64(cli.writes+srv.writes) / ops, "count"},

		"server.dial_ms":          {ms(lad.direct.dial), "ms"},
		"server.close_ms":         {ms(lad.direct.close), "ms"},
		"server.run_ms":           {ms(lad.direct.run), "ms"},
		"server.self_ms_per_op":   {ms(lad.direct.run - lad.protoRun), "ms"},
		"server.cache_hit_ratio":  {cacheRatio, "ratio"},
		"server.runs_failed":      {float64(a.srv.RunsFailed - b.srv.RunsFailed), "count"},
		"server.sessions_refused": {float64(a.srv.SessionsRefused - b.srv.SessionsRefused), "count"},
		"server.retries":          {float64(a.cli.Retries - b.cli.Retries), "count"},

		"fleet.dial_overhead_ms":     {ms(lad.viaFleet.dial - lad.direct.dial), "ms"},
		"fleet.run_overhead_ms":      {ms(lad.viaFleet.run - lad.direct.run), "ms"},
		"fleet.spliced_bytes_per_op": {lad.viaFleet.splicedPerOp, "B"},
		"fleet.failovers":            {float64(a.fl.Failovers-b.fl.Failovers) + float64(lad.fleetFailovers), "count"},
		"fleet.refusals": {float64(a.fl.SessionsRefused+a.fl.BackendRefusals-b.fl.SessionsRefused-b.fl.BackendRefusals) +
			float64(lad.fleetRefusals), "count"},

		"trace.ops_per_s":          {tracedRate, "1/s"},
		"trace.untraced_ops_per_s": {untracedRate, "1/s"},
		"trace.overhead":           {untracedRate/tracedRate - 1, "ratio"},
		"trace.op_ms_p50":          {ms(opP50), "ms"},
		"trace.unaccounted_share":  {float64(opP50-top) / float64(opP50), "ratio"},
	}
	res := &result{
		Correct:   plain.wrong == 0 && w.wrong == 0 && lad.wrong == 0,
		Attempted: plain.attempts + w.attempts,
		Failed:    plain.failures + w.failures + lad.wrong,
		Metrics:   m,
	}
	notes := []string{fmt.Sprintf("spans: %d written to %s", len(spans), spanPath)}
	for _, x := range []window{plain, w} {
		if x.lastErr != nil {
			notes = append(notes, fmt.Sprintf("last failure: %v", x.lastErr))
		}
	}
	return res, notes, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
