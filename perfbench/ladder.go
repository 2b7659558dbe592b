package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"haac/internal/aes128"
	"haac/internal/circuit"
	"haac/internal/gc"
	"haac/internal/label"
	"haac/internal/ot"
	"haac/internal/proto"
	"haac/internal/server"
)

// The layer ladder drives the workload's circuit and inputs through
// each layer's public entry points on their own, bottom-up: aes128,
// circuit plans, gc plan runners, ot primitives, proto sessions, direct
// server sessions and fleet sessions. A layer's self time is its per-op
// time minus that of the layer below it.

// dhInputs is the on-demand DH OT batch the ladder times: churn's
// evaluator input count, so the figure is comparable on every workload.
const dhInputs = 32

// rung is the per-op time of one serving rung of the ladder.
type rung struct {
	dial, run, close time.Duration
	splicedPerOp     float64 // fleet rung only
}

// ladder holds what the layer ladder measured.
type ladder struct {
	expandNs, blockNs float64

	planBuild time.Duration
	peakLive  int

	garble, eval           time.Duration // per op
	hash4Ns, hash2Ns       float64
	garbleCalls, evalCalls uint64 // hash calls per op, per side
	gcAllocs               float64

	dhUsPerOT   float64
	fillUsPerOT float64
	derand      time.Duration // per op
	otBytesPer  float64       // fill + derand bytes per pooled OT

	protoRun        time.Duration
	protoBytesPerOp float64

	direct, viaFleet rung
	fleetFailovers   uint64
	fleetRefusals    uint64

	wrong int // outputs that differed from the Reference
}

// sink keeps timed hash and cipher results live.
var sink label.L

type ladderRun struct {
	sp     *spec
	in     inputs
	seed   int64
	budget time.Duration // per timed step
	rng    *rand.Rand
	c      *circuit.Circuit
	plan   *circuit.Plan
	l      ladder
}

func runLadder(sp *spec, in inputs, seed int64, budget time.Duration) (*ladder, error) {
	lr := &ladderRun{sp: sp, in: in, seed: seed, budget: budget, rng: rand.New(rand.NewSource(seed))}
	lr.c = sp.wl.Build()
	steps := []struct {
		name string
		f    func() error
	}{
		{"aes128", lr.aes}, {"circuit", lr.circuit}, {"gc", lr.gc}, {"hash", lr.hash},
		{"ot", lr.ot}, {"proto", lr.proto}, {"server", lr.server}, {"fleet", lr.fleet},
	}
	for _, s := range steps {
		if err := s.f(); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", s.name, err)
		}
	}
	return &lr.l, nil
}

// timeIt calls f until the step budget has passed and at least minN
// times, and returns the median duration of one call.
func (lr *ladderRun) timeIt(minN int, f func() error) (time.Duration, error) {
	var ds []time.Duration
	end := time.Now().Add(lr.budget)
	for len(ds) < minN || time.Now().Before(end) {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t))
	}
	return median(ds), nil
}

func (lr *ladderRun) check(got, want []bool) {
	if !slices.Equal(got, want) {
		lr.l.wrong++
	}
}

func (lr *ladderRun) labels(n int) []label.L {
	ls := make([]label.L, n)
	for i := range ls {
		ls[i] = label.L{Hi: lr.rng.Uint64(), Lo: lr.rng.Uint64()}
	}
	return ls
}

const batch = 1024 // calls per timed sample of a nanosecond-scale primitive

func (lr *ladderRun) aes() error {
	var keys [256][aes128.KeySize]byte
	for i := range keys {
		lr.rng.Read(keys[i][:])
	}
	var ks aes128.Schedule
	d, err := lr.timeIt(5, func() error {
		for i := 0; i < batch; i++ {
			ks.ExpandFrom(&keys[i&255])
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.l.expandNs = float64(d.Nanoseconds()) / batch
	// Two blocks per call, the shape the re-keyed hasher encrypts.
	var buf [2 * aes128.BlockSize]byte
	d, err = lr.timeIt(5, func() error {
		for i := 0; i < batch; i++ {
			ks.EncryptBlocksTo(buf[:], buf[:])
		}
		return nil
	})
	sink = sink.Xor(label.FromBytes(buf[:16]))
	lr.l.blockNs = float64(d.Nanoseconds()) / batch
	return err
}

func (lr *ladderRun) circuit() error {
	d, err := lr.timeIt(3, func() error {
		p, err := circuit.NewPlan(lr.c)
		lr.plan = p
		return err
	})
	lr.l.planBuild = d
	lr.l.peakLive = lr.plan.PeakLive
	return err
}

// gcOp garbles the plan, encodes the inputs, evaluates and decodes —
// one op of the gc layer with no transport.
type gcOp struct {
	lr     *ladderRun
	pg     *gc.PlanGarbler
	pe     *gc.PlanEvaluator
	src    *label.Source
	inputs []label.L
	out    []bool
	i      int
}

func (lr *ladderRun) newGCOp(garble, eval gc.Hasher) *gcOp {
	return &gcOp{
		lr:     lr,
		pg:     gc.NewPlanGarbler(lr.plan, garble, 1),
		pe:     gc.NewPlanEvaluator(lr.plan, eval, 1),
		src:    label.NewSource(uint64(lr.seed) | 1),
		inputs: make([]label.L, lr.c.NumInputs()),
		out:    make([]bool, len(lr.c.Outputs)),
	}
}

func (o *gcOp) close() {
	o.pg.Close()
	o.pe.Close()
}

// run returns the garble and eval times of one op.
func (o *gcOp) run() (time.Duration, time.Duration, error) {
	c, in := o.lr.c, &o.lr.in
	e := in.e[o.i]
	t0 := time.Now()
	o.pg.Begin(o.src)
	g, err := o.pg.Run(nil)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	for j, z := range g.InputZeros {
		var bit bool
		switch {
		case j < c.GarblerInputs:
			bit = in.g[j]
		case j < c.GarblerInputs+c.EvaluatorInputs:
			bit = e[j-c.GarblerInputs]
		default:
			bit = c.HasConst && j == int(c.Const1)
		}
		if bit {
			z = z.Xor(g.R)
		}
		o.inputs[j] = z
	}
	outs, err := o.pe.Eval(o.inputs, g.Tables)
	if err != nil {
		return 0, 0, err
	}
	t2 := time.Now()
	for j, l := range outs {
		o.out[j] = l.Colour() != g.OutputZeros[j].Colour()
	}
	o.lr.check(o.out, in.want[o.i])
	o.i = (o.i + 1) % len(in.e)
	return t1.Sub(t0), t2.Sub(t1), nil
}

func (lr *ladderRun) gc() error {
	op := lr.newGCOp(gc.RekeyedHasher{}, gc.RekeyedHasher{})
	defer op.close()
	if _, _, err := op.run(); err != nil {
		return err
	}
	const allocOps = 8
	m0 := mallocs()
	for i := 0; i < allocOps; i++ {
		if _, _, err := op.run(); err != nil {
			return err
		}
	}
	lr.l.gcAllocs = float64(mallocs()-m0) / allocOps
	var gs, es []time.Duration
	end := time.Now().Add(lr.budget)
	for len(gs) < 3 || time.Now().Before(end) {
		g, e, err := op.run()
		if err != nil {
			return err
		}
		gs, es = append(gs, g), append(es, e)
	}
	lr.l.garble, lr.l.eval = median(gs), median(es)

	var garbleH, evalH countingHasher
	cop := lr.newGCOp(&garbleH, &evalH)
	defer cop.close()
	if _, _, err := cop.run(); err != nil {
		return err
	}
	lr.l.garbleCalls, lr.l.evalCalls = garbleH.calls.Load(), evalH.calls.Load()
	return nil
}

// hash times the garbler's Hash4 and the evaluator's Hash2 with the
// tweak pattern of one AND gate (2j, 2j+1).
func (lr *ladderRun) hash() error {
	ls := lr.labels(256)
	h := gc.RekeyedHasher{}
	d4, err := lr.timeIt(5, func() error {
		for j := 0; j < batch; j++ {
			t := uint64(2 * j)
			a, b, c, d := h.Hash4(ls[j&255], ls[(j+1)&255], ls[(j+2)&255], ls[(j+3)&255], t, t, t+1, t+1)
			sink = sink.Xor(a).Xor(b).Xor(c).Xor(d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	d2, err := lr.timeIt(5, func() error {
		for j := 0; j < batch; j++ {
			t := uint64(2 * j)
			a, b := h.Hash2(ls[j&255], ls[(j+1)&255], t, t+1)
			sink = sink.Xor(a).Xor(b)
		}
		return nil
	})
	lr.l.hash4Ns, lr.l.hash2Ns = float64(d4.Nanoseconds())/batch, float64(d2.Nanoseconds())/batch
	return err
}

// pair is two ends of one loopback TCP connection.
type pair struct {
	a, b net.Conn
	once sync.Once
}

func loopback() (*pair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	b, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-ch
		return nil, err
	}
	r := <-ch
	if r.err != nil {
		b.Close()
		return nil, r.err
	}
	return &pair{a: r.c, b: b}, nil
}

// close tears both ends down; it unblocks a peer stuck on the other
// side after one side failed.
func (p *pair) close() {
	p.once.Do(func() {
		p.a.Close()
		p.b.Close()
	})
}

// both runs the two sides of an exchange concurrently. The first side
// to fail closes the pair so the other cannot block forever.
func (p *pair) both(fa, fb func() error) error {
	var errs [2]error
	var wg sync.WaitGroup
	side := func(i int, f func() error) {
		defer wg.Done()
		if errs[i] = f(); errs[i] != nil {
			p.close()
		}
	}
	wg.Add(2)
	go side(1, fb)
	side(0, fa)
	wg.Wait()
	return errors.Join(errs[0], errs[1])
}

func (lr *ladderRun) ot() error {
	p, err := loopback()
	if err != nil {
		return err
	}
	defer p.close()

	pairs := lr.otPairs(dhInputs)
	choices := lr.choices(dhInputs)
	d, err := lr.timeIt(3, func() error {
		var got []label.L
		if err := p.both(func() error { return ot.Send(p.a, ot.DH, pairs) },
			func() (err error) { got, err = ot.Receive(p.b, ot.DH, choices); return }); err != nil {
			return err
		}
		lr.checkOT(pairs, choices, got)
		return nil
	})
	if err != nil {
		return err
	}
	lr.l.dhUsPerOT = float64(d.Nanoseconds()) / 1e3 / dhInputs

	n := lr.c.EvaluatorInputs
	fill := 4 * n
	var st proto.Stats
	a := proto.Instrument(p.a, &st)
	var sender, receiver *ot.Pool
	if err := p.both(func() (err error) { sender, err = ot.NewSenderPool(a, ot.DH); return },
		func() (err error) { receiver, err = ot.NewReceiverPool(p.b, ot.DH); return }); err != nil {
		return err
	}
	pairs, choices = lr.otPairs(n), lr.choices(n)
	bits := ot.BitsetFromBools(choices)
	got := make([]label.L, n)
	var fills, derands []time.Duration
	var bytes int64
	end := time.Now().Add(lr.budget)
	for len(fills) < 3 || time.Now().Before(end) {
		b0 := st.BytesSent.Load() + st.BytesReceived.Load()
		t := time.Now()
		if err := p.both(func() error { return sender.Fill(a, fill) },
			func() error { return receiver.Fill(p.b, fill) }); err != nil {
			return err
		}
		fills = append(fills, time.Since(t))
		for k := 0; k < fill/n; k++ {
			t := time.Now()
			if err := p.both(func() error { return sender.SendDerand(a, pairs) },
				func() error { return receiver.ReceiveDerand(p.b, bits, got) }); err != nil {
				return err
			}
			derands = append(derands, time.Since(t))
			lr.checkOT(pairs, choices, got)
		}
		bytes = st.BytesSent.Load() + st.BytesReceived.Load() - b0
	}
	lr.l.fillUsPerOT = float64(median(fills).Nanoseconds()) / 1e3 / float64(fill)
	lr.l.derand = median(derands)
	lr.l.otBytesPer = float64(bytes) / float64(fill)
	return nil
}

func (lr *ladderRun) otPairs(n int) []ot.Pair {
	ls := lr.labels(2 * n)
	ps := make([]ot.Pair, n)
	for i := range ps {
		ps[i] = ot.Pair{M0: ls[2*i], M1: ls[2*i+1]}
	}
	return ps
}

func (lr *ladderRun) choices(n int) []bool {
	cs := make([]bool, n)
	for i := range cs {
		cs[i] = lr.rng.Intn(2) == 1
	}
	return cs
}

func (lr *ladderRun) checkOT(pairs []ot.Pair, choices []bool, got []label.L) {
	for i, p := range pairs {
		want := p.M0
		if choices[i] {
			want = p.M1
		}
		if got[i] != want {
			lr.l.wrong++
			return
		}
	}
}

// proto runs a GarblerSession against an EvaluatorSession over one
// loopback connection with no server, on the same wire tier the
// serving workloads negotiate: integrity framing, and a pool refilled
// between runs when the workload pools its OTs.
func (lr *ladderRun) proto() error {
	p, err := loopback()
	if err != nil {
		return err
	}
	defer p.close()
	fa, fb := proto.NewFramedConn(p.a), proto.NewFramedConn(p.b)
	var st proto.Stats
	gs, err := proto.NewGarblerSession(fa, proto.Options{Plan: lr.plan, Seed: uint64(lr.seed) | 1, OT: ot.DH, Stats: &st})
	if err != nil {
		return err
	}
	defer gs.Close()
	es, err := proto.NewEvaluatorSession(fb, lr.c, proto.Options{Plan: lr.plan, OT: ot.DH})
	if err != nil {
		return err
	}
	defer es.Close()
	var sender, receiver *ot.Pool
	n := lr.c.EvaluatorInputs
	target := lr.sp.poolRuns * n
	if target > 0 {
		if err := p.both(func() (err error) { sender, err = ot.NewSenderPool(fa, ot.DH); return },
			func() (err error) { receiver, err = ot.NewReceiverPool(fb, ot.DH); return }); err != nil {
			return err
		}
		gs.SetPool(sender)
		es.SetPool(receiver)
	}
	in := &lr.in
	var runs []time.Duration
	var bytes int64
	end := time.Now().Add(lr.budget)
	for i := 0; len(runs) < 5 || time.Now().Before(end); i = (i + 1) % len(in.e) {
		if sender != nil && sender.Level() < n {
			k := target - sender.Level()
			if err := p.both(func() error { return sender.Fill(fa, k) },
				func() error { return receiver.Fill(fb, k) }); err != nil {
				return err
			}
		}
		b0 := st.BytesSent.Load() + st.BytesReceived.Load()
		t := time.Now()
		var out []bool
		err := p.both(func() error { _, err := gs.Run(in.g); return err },
			func() (err error) { out, err = es.Run(in.e[i]); return })
		if err != nil {
			return err
		}
		runs = append(runs, time.Since(t))
		lr.check(out, in.want[i])
		bytes += st.BytesSent.Load() + st.BytesReceived.Load() - b0
	}
	lr.l.protoRun = median(runs)
	lr.l.protoBytesPerOp = float64(bytes) / float64(len(runs))
	return nil
}

func (lr *ladderRun) server() error {
	r, err := lr.serving(false)
	lr.l.direct = r
	return err
}

func (lr *ladderRun) fleet() error {
	r, err := lr.serving(true)
	lr.l.viaFleet = r
	return err
}

// serving times Dial, Run and Close of single sessions against a fresh
// direct server or fleet, with the workload's client options. A churn
// op is Dial → Run → Close; otherwise Run repeats on one session.
func (lr *ladderRun) serving(viaFleet bool) (rung, error) {
	var r rung
	sp := *lr.sp
	sp.viaFleet = viaFleet
	st, err := newStack(&sp, lr.in, lr.seed, nil)
	if err != nil {
		return r, err
	}
	defer st.close()
	in := &lr.in
	i := 0
	var dials, runs, closes []time.Duration
	run := func(s *server.Session) error {
		st.issued.Add(1)
		t := time.Now()
		out, err := s.Run(in.e[i])
		if err != nil {
			return err
		}
		runs = append(runs, time.Since(t))
		lr.check(out, in.want[i])
		i = (i + 1) % len(in.e)
		return nil
	}
	// op dials, optionally runs once, and closes.
	op := func(withRun bool) error {
		t := time.Now()
		s, err := server.Dial(st.addr, circuitID, st.c, st.opts)
		if err != nil {
			return err
		}
		dials = append(dials, time.Since(t))
		if withRun {
			if err := run(s); err != nil {
				s.Close() // the run's error is the one to report
				return err
			}
		}
		t = time.Now()
		err = s.Close()
		closes = append(closes, time.Since(t))
		return err
	}
	var b0 int64
	end := time.Now().Add(lr.budget)
	if sp.churn {
		b0 = spliced(st)
		for len(runs) < 5 || time.Now().Before(end) {
			if err := op(true); err != nil {
				return r, err
			}
		}
	} else {
		for len(dials) < 3 || time.Now().Before(end) {
			if err := op(false); err != nil {
				return r, err
			}
		}
		s, err := server.Dial(st.addr, circuitID, st.c, st.opts)
		if err != nil {
			return r, err
		}
		b0 = spliced(st)
		end = time.Now().Add(lr.budget)
		for len(runs) < 5 || time.Now().Before(end) {
			if err := run(s); err != nil {
				s.Close() // the run's error is the one to report
				return r, err
			}
		}
		if err := s.Close(); err != nil {
			return r, err
		}
	}
	if err := st.quiesce(); err != nil {
		return r, err
	}
	r.dial, r.run, r.close = median(dials), median(runs), median(closes)
	if st.fleet != nil {
		r.splicedPerOp = float64(spliced(st)-b0) / float64(len(runs))
		fs := st.fleet.Stats()
		lr.l.fleetFailovers = fs.Failovers
		lr.l.fleetRefusals = fs.SessionsRefused + fs.BackendRefusals
	}
	return r, nil
}

// spliced is the fleet's splice byte total, both directions.
func spliced(st *stack) int64 {
	if st.fleet == nil {
		return 0
	}
	fs := st.fleet.Stats()
	return int64(fs.BytesClientToBackend + fs.BytesBackendToClient)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
