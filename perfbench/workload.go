package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"haac/internal/circuit"
	"haac/internal/fleet"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
	"haac/internal/workloads"
)

// spec is one benchmark workload: a circuit, the serving topology it
// runs through and the shape of one closed-loop op.
type spec struct {
	name string
	wl   workloads.Workload
	// viaFleet routes sessions through a fleet proxy fronting two
	// backends instead of dialing one server directly.
	viaFleet bool
	// churn makes one op Dial → Run → Close; otherwise an op is one Run
	// on a long-lived session.
	churn bool
	// poolRuns sizes each session's precomputed-OT pool in runs' worth
	// of evaluator inputs; 0 keeps the default on-demand DH OT.
	poolRuns int
	// warmup is the number of ops each client completes before any
	// measurement, so plans, pools and buffers are warm.
	warmup int
}

// specs are the three workloads. Each stresses different layers; the
// reasons and the metric → layer → workload table are in README.md.
var specs = []spec{
	// AND-heavy: 11 800 ANDs and 128 pooled OTs per op, direct to one
	// server, so aes128 and gc dominate.
	{name: "steady", wl: workloads.AES128(), poolRuns: 4, warmup: 8},
	// Setup-heavy: 32 ANDs, but a handshake, plan-cache lookup, fleet
	// route and two DH base-OT rounds per op.
	{name: "churn", wl: workloads.Millionaire(32), viaFleet: true, churn: true, warmup: 16},
	// Input-heavy: 0.5 OT per AND from the pool, refills interleaving
	// with runs, bulk bytes through the fleet splice.
	{name: "wide", wl: workloads.Hamming(4096), viaFleet: true, poolRuns: 4, warmup: 8},
}

func lookup(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want steady, churn or wide)", name)
}

const (
	numClients = 2  // concurrent closed-loop clients
	inputSets  = 64 // distinct evaluator inputs drawn per seed
	circuitID  = "bench"
)

// inputs are the seeded operands of one workload: the garbler's bits,
// a cycle of evaluator inputs and the Reference output of each.
type inputs struct {
	g    []bool
	e    [][]bool
	want [][]bool
}

func makeInputs(w workloads.Workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	g, _ := w.Inputs(rng.Int63())
	in := inputs{g: g}
	for i := 0; i < inputSets; i++ {
		_, e := w.Inputs(rng.Int63())
		in.e = append(in.e, e)
		in.want = append(in.want, w.Reference(g, e))
	}
	return in
}

// stack is one running serving topology: the backend servers, the
// optional fleet proxy in front of them, the options every client
// session dials with, and the closed-loop clients once deployed.
type stack struct {
	sp      *spec
	c       *circuit.Circuit
	plan    *circuit.Plan
	in      inputs
	servers []*server.Server
	fleet   *fleet.Fleet
	addr    string
	opts    server.Options
	wire    proto.Stats // client transport bytes, both directions
	tr      *tracer     // nil when untraced
	serving sync.WaitGroup
	cls     []*client

	issued atomic.Uint64 // Session.Run calls made, for quiescence
	opSeq  atomic.Uint64 // op ids shared by an op's spans
}

// newStack builds the circuit and its plan, starts the servers (and
// the fleet when the workload routes through one) on loopback
// listeners, and fixes the client options.
func newStack(sp *spec, in inputs, seed int64, tr *tracer) (*stack, error) {
	c := sp.wl.Build()
	plan, err := circuit.NewPlan(c)
	if err != nil {
		return nil, err
	}
	st := &stack{sp: sp, c: c, plan: plan, in: in, tr: tr}
	backends := 1
	if sp.viaFleet {
		backends = 2
	}
	var fb []fleet.Backend
	for i := 0; i < backends; i++ {
		cfg := server.Config{
			Circuits: []server.CircuitSpec{{ID: circuitID, Circuit: c, Inputs: func() []bool { return in.g }}},
			Seed:     uint64(seed)<<4 | uint64(i+1),
		}
		if tr != nil {
			cfg.Hasher = &tr.hasher
		}
		srv, err := server.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		served := ln
		if tr != nil {
			served = countingListener{ln, &tr.server}
		}
		st.serve("server", func() error { return srv.Serve(served) })
		fb = append(fb, fleet.Backend{Addr: ln.Addr().String()})
	}
	st.addr = fb[0].Addr
	if sp.viaFleet {
		f, err := fleet.New(fleet.Config{Backends: fb})
		if err != nil {
			st.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			st.close()
			return nil, err
		}
		st.fleet = f
		st.serve("fleet", func() error { return f.Serve(ln) })
		st.addr = ln.Addr().String()
	}
	st.opts = server.Options{Plan: plan, Integrity: true, Stats: &st.wire}
	if sp.poolRuns > 0 {
		st.opts.PoolSize = sp.poolRuns * c.EvaluatorInputs
	}
	return st, nil
}

// serve runs one accept loop until the stack closes.
func (st *stack) serve(what string, serve func() error) {
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if err := serve(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s stopped: %v\n", what, err)
		}
	}()
}

// close ends the clients' sessions, stops the fleet and the servers,
// and waits for their accept loops. Each Close drains gracefully and
// returns nil unless a drain had to force sessions shut, which the
// benchmark reports.
func (st *stack) close() {
	for _, cl := range st.cls {
		cl.close()
	}
	if st.fleet != nil {
		if err := st.fleet.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: fleet close:", err)
		}
	}
	for _, s := range st.servers {
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server close:", err)
		}
	}
	st.serving.Wait()
}

// serverStats sums the counters of every backend.
func (st *stack) serverStats() server.Stats {
	var t server.Stats
	for _, s := range st.servers {
		x := s.Stats()
		t.ActiveSessions += x.ActiveSessions
		t.RunsServed += x.RunsServed
		t.RunsFailed += x.RunsFailed
		t.SessionsRefused += x.SessionsRefused
		t.CacheHits += x.CacheHits
		t.CacheMisses += x.CacheMisses
		t.PoolHits += x.PoolHits
		t.PoolMisses += x.PoolMisses
		t.PoolRefills += x.PoolRefills
	}
	return t
}

// quiesce waits until the servers have accounted every run the clients
// issued — a client's Run can return before the server records it —
// and, for churn, until every closed session has left the servers and
// the fleet. Snapshots taken after it are exact.
func (st *stack) quiesce() error {
	want := st.issued.Load()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := st.serverStats()
		done := s.RunsServed+s.RunsFailed == want
		if st.sp.churn {
			done = done && s.ActiveSessions == 0 && (st.fleet == nil || st.fleet.Stats().ActiveSessions == 0)
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servers accounted %d of %d runs (%d sessions active) after 10s",
				s.RunsServed+s.RunsFailed, want, s.ActiveSessions)
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one closed-loop caller. It owns a long-lived session unless
// the workload churns sessions.
type client struct {
	st   *stack
	id   int
	opts server.Options
	sess *server.Session
	next int // index of the next input set
	conn *connStats

	closed   server.ClientStats // counters of sessions already closed
	lat      []time.Duration    // successful ops of the current window
	attempts int
	failures int
	wrong    int // failures whose output differed from the Reference
	lastErr  error
	spans    []span
}

func (st *stack) newClient(id int) (*client, error) {
	cl := &client{st: st, id: id, opts: st.opts, next: id % inputSets}
	if st.tr != nil {
		cl.conn = new(connStats)
		cl.opts.Dialer = cl.conn.dialer
	}
	if !st.sp.churn {
		s, err := server.Dial(st.addr, circuitID, st.c, cl.opts)
		if err != nil {
			return nil, err
		}
		cl.sess = s
	}
	return cl, nil
}

// stats is the sum of the client's session counters. Call it only
// while the client is idle.
func (cl *client) stats() server.ClientStats {
	t := cl.closed
	if cl.sess != nil {
		addClientStats(&t, cl.sess.Stats())
	}
	return t
}

func addClientStats(t *server.ClientStats, x server.ClientStats) {
	t.Runs += x.Runs
	t.RunFailures += x.RunFailures
	t.Retries += x.Retries
	t.PoolHits += x.PoolHits
	t.PoolMisses += x.PoolMisses
	t.PoolRefills += x.PoolRefills
}

// op runs one operation on the next input set and checks its output
// against the Reference. An error, a refusal or a wrong output counts
// as a failure and is never timed as a success. The returned error is
// fatal: a long-lived session broke and could not be redialed.
func (cl *client) op() error {
	in := &cl.st.in
	i := cl.next
	cl.next = (cl.next + numClients) % len(in.e)
	id := cl.st.opSeq.Add(1)
	var r0, w0 int64
	if cl.conn != nil {
		r0, w0 = cl.conn.readNs.Load(), cl.conn.writeNs.Load()
	}
	start := time.Now()
	out, err := cl.do(id, in.e[i])
	ok := err == nil && slices.Equal(out, in.want[i])
	d := time.Since(start)
	cl.attempts++
	if ok {
		cl.lat = append(cl.lat, d)
	} else {
		cl.failures++
		cl.lastErr = err
		if err == nil {
			cl.wrong++
			cl.lastErr = fmt.Errorf("output of input set %d differs from the Reference", i)
		}
	}
	if cl.conn != nil {
		cl.record(id, "op", start, time.Now(), cl.conn.readNs.Load()-r0, cl.conn.writeNs.Load()-w0)
	}
	if err != nil && cl.sess != nil {
		addClientStats(&cl.closed, cl.sess.Stats())
		cl.sess.Close() // already broken; its error says only that
		s, derr := server.Dial(cl.st.addr, circuitID, cl.st.c, cl.opts)
		if derr != nil {
			cl.sess = nil
			return fmt.Errorf("client %d: redial after %v: %w", cl.id, err, derr)
		}
		cl.sess = s
	}
	return nil
}

// do performs the op's calls into the serving stack.
func (cl *client) do(id uint64, e []bool) ([]bool, error) {
	if !cl.st.sp.churn {
		return cl.run(id, cl.sess, e)
	}
	t := time.Now()
	s, err := server.Dial(cl.st.addr, circuitID, cl.st.c, cl.opts)
	cl.record(id, "dial", t, time.Now(), 0, 0)
	if err != nil {
		return nil, err
	}
	out, err := cl.run(id, s, e)
	addClientStats(&cl.closed, s.Stats())
	t = time.Now()
	cerr := s.Close()
	cl.record(id, "close", t, time.Now(), 0, 0)
	if err == nil {
		err = cerr
	}
	return out, err
}

func (cl *client) run(id uint64, s *server.Session, e []bool) ([]bool, error) {
	cl.st.issued.Add(1)
	t := time.Now()
	out, err := s.Run(e)
	cl.record(id, "run", t, time.Now(), 0, 0)
	return out, err
}

func (cl *client) record(id uint64, name string, start, end time.Time, readNs, writeNs int64) {
	if cl.st.tr == nil {
		return
	}
	t0 := cl.st.tr.t0
	cl.spans = append(cl.spans, span{Op: id, Client: cl.id, Name: name,
		StartNs: start.Sub(t0).Nanoseconds(), EndNs: end.Sub(t0).Nanoseconds(), ReadNs: readNs, WriteNs: writeNs})
}

func (cl *client) close() {
	if cl.sess != nil {
		cl.sess.Close() // end of the benchmark; nothing depends on the goodbye
		cl.sess = nil
	}
}

// loop drives every client concurrently in a closed loop: each client
// issues its next op only after the previous one returned, until the
// deadline passes or it has completed maxOps ops (0 = no limit).
func loop(cls []*client, deadline time.Time, maxOps int) error {
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for n := 0; (maxOps == 0 || n < maxOps) && time.Now().Before(deadline); n++ {
				if err := cl.op(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// deploy performs the whole set-up of one workload: circuit build,
// server and fleet start, plan builds, dials with their initial pool
// fills, and warm-up ops, ending quiescent. Warm-up ops are
// oracle-checked too; any failure aborts the set-up.
func deploy(sp *spec, in inputs, seed int64, tr *tracer) (*stack, error) {
	st, err := newStack(sp, in, seed, tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < numClients; i++ {
		cl, err := st.newClient(i)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		st.cls = append(st.cls, cl)
	}
	err = loop(st.cls, time.Now().Add(time.Minute), sp.warmup)
	for _, cl := range st.cls {
		if err == nil && cl.failures > 0 {
			err = fmt.Errorf("warm-up op failed: %w", cl.lastErr)
		}
		cl.reset()
	}
	if err == nil {
		err = st.quiesce()
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (cl *client) reset() {
	cl.lat = cl.lat[:0]
	cl.attempts, cl.failures, cl.wrong, cl.lastErr = 0, 0, 0, nil
}

// window is what one measured closed-loop interval observed.
type window struct {
	attempts, failures int
	wrong              int
	lastErr            error
	elapsed            time.Duration
	lat                []time.Duration
	cpu                time.Duration
	mallocs            uint64
	wireBytes          int64
	peakHeap           uint64
	before, after      snapshot
}

// measure runs the clients for d between two quiescent snapshots.
func (st *stack) measure(d time.Duration) (window, error) {
	var w window
	if err := st.quiesce(); err != nil {
		return w, err
	}
	w.before = st.snapshot()
	wire0 := st.wire.BytesSent.Load() + st.wire.BytesReceived.Load()
	cpu0, mallocs0 := cpuTime(), mallocs()
	peak := startHeapPeak()
	t0 := time.Now()
	err := loop(st.cls, t0.Add(d), 0)
	w.elapsed = time.Since(t0)
	w.peakHeap = peak.stop()
	w.cpu, w.mallocs = cpuTime()-cpu0, mallocs()-mallocs0
	w.wireBytes = st.wire.BytesSent.Load() + st.wire.BytesReceived.Load() - wire0
	if err != nil {
		return w, err
	}
	for _, cl := range st.cls {
		w.attempts += cl.attempts
		w.failures += cl.failures
		w.wrong += cl.wrong
		if cl.lastErr != nil {
			w.lastErr = cl.lastErr
		}
		w.lat = append(w.lat, cl.lat...)
		cl.reset()
	}
	if err := st.quiesce(); err != nil {
		if w.failures == 0 {
			return w, err
		}
		// A failed op may never reach the server's counters; the
		// failures are reported, the inexact counters are not trusted.
		fmt.Fprintln(os.Stderr, "perfbench: after failures:", err)
	}
	w.after = st.snapshot()
	return w, nil
}

// snapshot is every counter the benchmark reads before and after a
// window.
type snapshot struct {
	srv       server.Stats
	cli       server.ClientStats
	fl        fleet.Stats
	baseOT    uint64
	hashCalls uint64
	client    connTotals
	server    connTotals
}

func (st *stack) snapshot() snapshot {
	s := snapshot{srv: st.serverStats(), baseOT: ot.BaseOTRounds()}
	for _, cl := range st.cls {
		addClientStats(&s.cli, cl.stats())
		if cl.conn != nil {
			s.client.add(cl.conn)
		}
	}
	if st.fleet != nil {
		s.fl = st.fleet.Stats()
	}
	if st.tr != nil {
		s.hashCalls = st.tr.hasher.calls.Load()
		s.server.add(&st.tr.server)
	}
	return s
}
