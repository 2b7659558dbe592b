package proto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"math/rand"
	"net"
	"testing"

	"haac/internal/circuit"
	"haac/internal/ot"
	"haac/internal/workloads"
)

// Wire-transcript pins: the SHA-256 of every byte each party writes
// during one full run — header, labels, OT, tables, decode bits and
// result — with a fixed label seed and ot.Insecure, so the whole
// exchange is deterministic. The hashes are the 2PC wire contract:
// every engine configuration, one-shot or session, must reproduce them
// exactly, so engine internals can change freely behind them.

// transcriptSeed is the garbler label seed of every pinned run.
const transcriptSeed = 0x5eed

// transcriptCase is one pinned circuit: its inputs and the hex SHA-256
// of the garbler→evaluator and evaluator→garbler byte streams.
type transcriptCase struct {
	name       string
	c          *circuit.Circuit
	g, e       []bool
	toEval     string
	toGarbler  string
	wantConsts bool
}

// transcriptCases returns a wide workload with the public constant
// wires and a random circuit without them.
func transcriptCases(t *testing.T) []transcriptCase {
	t.Helper()
	w := workloads.DotProduct(4, 16)
	g, e := w.Inputs(3)
	var nc *circuit.Circuit
	for s := int64(1); nc == nil; s++ {
		rc := circuit.RandomCircuit(rand.New(rand.NewSource(s)))
		and, _, _ := rc.CountOps()
		if !rc.HasConst && rc.EvaluatorInputs > 0 && and >= 8 {
			nc = rc
		}
	}
	rng := rand.New(rand.NewSource(11))
	ng, ne := make([]bool, nc.GarblerInputs), make([]bool, nc.EvaluatorInputs)
	for i := range ng {
		ng[i] = rng.Intn(2) == 1
	}
	for i := range ne {
		ne[i] = rng.Intn(2) == 1
	}
	return []transcriptCase{
		{
			name: "DotProd", c: w.Build(), g: g, e: e, wantConsts: true,
			toEval:    "cc75b0fb2a139f38601cd07a5354ce7bd881061d71346b35ffa6ac50aaeeac0c",
			toGarbler: "0e2a5d0b3151542c03a1b366f8271a5c8cdcecf06a45deaf7393cd53b56c8075",
		},
		{
			name: "random-noconst", c: nc, g: ng, e: ne,
			toEval:    "a9a61d62124947aa0835916364977f35597765c2c123f6299517160238877bdd",
			toGarbler: "7051ecc1a9790222b2988eb7282318b43c7ec26eae9b269910137991b599aea7",
		},
	}
}

// tap hashes every byte written through it.
type tap struct {
	io.ReadWriter
	h hash.Hash
}

func (t *tap) Write(p []byte) (int, error) {
	n, err := t.ReadWriter.Write(p)
	t.h.Write(p[:n])
	return n, err
}

// sum returns the hex digest of the bytes written so far.
func (t *tap) sum() string { return hex.EncodeToString(t.h.Sum(nil)) }

// recTap records every byte written through it.
type recTap struct {
	io.ReadWriter
	buf bytes.Buffer
}

func (t *recTap) Write(p []byte) (int, error) {
	n, err := t.ReadWriter.Write(p)
	t.buf.Write(p[:n])
	return n, err
}

// framedPayloadSum decodes a recorded integrity-tier stream back into
// its payload bytes and hashes them: frame boundaries follow Write
// calls, so only the payload is part of the contract.
func framedPayloadSum(t *testing.T, framed []byte) string {
	t.Helper()
	fc := NewFramedConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(framed), io.Discard})
	h := sha256.New()
	if _, err := io.Copy(h, fc); err != nil && err != io.EOF {
		t.Fatalf("deframing recorded stream: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runTranscript plays one run over a pipe with each side's writes
// passing through the given wrappers, and checks both results.
func runTranscript(t *testing.T, tc transcriptCase, gw, ew io.ReadWriter,
	garble func(io.ReadWriter) ([]bool, error), eval func(io.ReadWriter) ([]bool, error)) {
	t.Helper()
	want, err := tc.c.Eval(tc.g, tc.e)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		bits []bool
		err  error
	}
	gch := make(chan res, 1)
	go func() {
		bits, err := garble(gw)
		gch <- res{append([]bool(nil), bits...), err}
	}()
	ebits, err := eval(ew)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	gr := <-gch
	if gr.err != nil {
		t.Fatalf("garbler: %v", gr.err)
	}
	for i := range want {
		if gr.bits[i] != want[i] || ebits[i] != want[i] {
			t.Fatalf("output bit %d diverged from the plaintext oracle", i)
		}
	}
}

// transcriptModes are the one-shot engine configurations for c: with
// and without a shared plan, sequential and four workers wide.
func transcriptModes(t *testing.T, c *circuit.Circuit) []struct {
	name string
	opts Options
} {
	p, err := circuit.NewPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{OT: ot.Insecure, Seed: transcriptSeed}
	with := func(f func(*Options)) Options { o := base; f(&o); return o }
	return []struct {
		name string
		opts Options
	}{
		{"sequential", base},
		{"workers-4", with(func(o *Options) { o.Workers = 4 })},
		{"plan", with(func(o *Options) { o.Plan = p })},
		{"plan-workers-4", with(func(o *Options) { o.Plan = p; o.Workers = 4 })},
	}
}

// TestWireTranscriptPinned checks every engine configuration against
// the committed per-direction transcript hashes.
func TestWireTranscriptPinned(t *testing.T) {
	for _, tc := range transcriptCases(t) {
		if tc.c.HasConst != tc.wantConsts {
			t.Fatalf("%s: HasConst=%v, want %v", tc.name, tc.c.HasConst, tc.wantConsts)
		}
		check := func(t *testing.T, gsum, esum string) {
			t.Helper()
			if gsum != tc.toEval {
				t.Errorf("garbler→evaluator transcript %s, want %s", gsum, tc.toEval)
			}
			if esum != tc.toGarbler {
				t.Errorf("evaluator→garbler transcript %s, want %s", esum, tc.toGarbler)
			}
		}
		for _, m := range transcriptModes(t, tc.c) {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				ga, ev := net.Pipe()
				defer ga.Close()
				defer ev.Close()
				gt, et := &tap{ga, sha256.New()}, &tap{ev, sha256.New()}
				runTranscript(t, tc, gt, et,
					func(rw io.ReadWriter) ([]bool, error) { return RunGarbler(rw, tc.c, tc.g, m.opts) },
					func(rw io.ReadWriter) ([]bool, error) { return RunEvaluator(rw, tc.c, tc.e, m.opts) })
				check(t, gt.sum(), et.sum())
			})
		}
		t.Run(tc.name+"/session", func(t *testing.T) {
			p, err := circuit.NewPlan(tc.c)
			if err != nil {
				t.Fatal(err)
			}
			ga, ev := net.Pipe()
			defer ga.Close()
			defer ev.Close()
			gt, et := &tap{ga, sha256.New()}, &tap{ev, sha256.New()}
			opts := Options{OT: ot.Insecure, Seed: transcriptSeed, Plan: p}
			gs, err := NewGarblerSession(gt, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer gs.Close()
			es, err := NewEvaluatorSession(et, tc.c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer es.Close()
			runTranscript(t, tc, gt, et,
				func(io.ReadWriter) ([]bool, error) { return gs.Run(tc.g) },
				func(io.ReadWriter) ([]bool, error) { return es.Run(tc.e) })
			check(t, gt.sum(), et.sum())
		})
		t.Run(tc.name+"/integrity-payload", func(t *testing.T) {
			ga, ev := net.Pipe()
			defer ga.Close()
			defer ev.Close()
			gr, er := &recTap{ReadWriter: ga}, &recTap{ReadWriter: ev}
			opts := Options{OT: ot.Insecure, Seed: transcriptSeed, Integrity: true}
			runTranscript(t, tc, gr, er,
				func(rw io.ReadWriter) ([]bool, error) { return RunGarbler(rw, tc.c, tc.g, opts) },
				func(rw io.ReadWriter) ([]bool, error) { return RunEvaluator(rw, tc.c, tc.e, opts) })
			check(t, framedPayloadSum(t, gr.buf.Bytes()), framedPayloadSum(t, er.buf.Bytes()))
		})
	}
}
