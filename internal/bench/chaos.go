package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"haac/internal/circuit"
	"haac/internal/faultnet"
	"haac/internal/ot"
	"haac/internal/server"
	"haac/internal/workloads"
)

// Chaos experiment: the serving layer's self-healing story, quantified.
// Concurrent evaluator sessions run against one serving garbler through
// a seeded fault-injecting dialer that severs connections at increasing
// per-I/O-op drop rates; the clients' retry policy redials,
// re-handshakes and replays every broken run. The experiment reports,
// per fault rate, the throughput the healed sessions still achieve and
// the repair work it took — drops injected, reconnects, replayed run
// attempts, failed redials, and the failed runs the server tore down.
// Every run's output is checked against the plaintext oracle, so the
// table doubles as an end-to-end proof that replayed runs stay
// byte-identical under faults.

// ChaosRow reports one fault level.
type ChaosRow struct {
	DropRate   float64 // per-I/O-op probability of severing the conn
	Sessions   int
	Runs       int // completed (healed) runs, all sessions
	RunsPerSec float64
	Drops      uint64 // connections severed by the injector
	Reconnects uint64 // successful redial + re-handshake cycles
	Retries    uint64 // run attempts replayed after a retryable failure
	DialFails  uint64 // redial attempts that failed
	SrvFailed  uint64 // runs the server saw die mid-protocol
}

// Chaos measures serving throughput and repair work at increasing
// injected connection-drop rates.
func (e *Env) Chaos() ([]ChaosRow, string, error) {
	w := workloads.AddN(16)
	c := w.Build()
	garblerBits, _ := w.Inputs(3)
	sessions, runsPerSession := 4, 12
	if e.Scale == Paper {
		runsPerSession = 24
	}

	var rows []ChaosRow
	for i, rate := range []float64{0, 0.02, 0.05} {
		row, err := e.chaosLevel(w, c, garblerBits, rate, uint64(100+i), sessions, runsPerSession)
		if err != nil {
			return nil, "", fmt.Errorf("chaos: drop rate %.2f: %w", rate, err)
		}
		rows = append(rows, row)
	}

	header := []string{"drop rate", "sessions", "runs", "runs/s", "drops", "reconnects", "retries", "dial fails", "srv failed runs"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.2f", r.DropRate),
			fmt.Sprint(r.Sessions),
			fmt.Sprint(r.Runs),
			fmt.Sprintf("%.0f", r.RunsPerSec),
			fmt.Sprint(r.Drops),
			fmt.Sprint(r.Reconnects),
			fmt.Sprint(r.Retries),
			fmt.Sprint(r.DialFails),
			fmt.Sprint(r.SrvFailed),
		})
	}
	s := table(header, cells)
	s += fmt.Sprintf("\n(%s over loopback TCP through a seeded fault-injecting dialer; drop rate is\n"+
		"the per-I/O-op probability of severing the connection; every run's output is\n"+
		"checked against the plaintext oracle, so completed runs are byte-identical to\n"+
		"fault-free ones — the remaining columns price the repair: reconnect handshakes,\n"+
		"replayed runs and the server-side sessions torn down mid-protocol; throughput\n"+
		"is reported for shape only, not asserted)\n", w.Name)
	return rows, s, nil
}

// chaosLevel runs one drop-rate level end to end: every session must
// complete all its runs with oracle-identical outputs, healed by the
// retry policy.
func (e *Env) chaosLevel(w workloads.Workload, c *circuit.Circuit, garblerBits []bool, rate float64, seed uint64, sessions, runsPerSession int) (ChaosRow, error) {
	row := ChaosRow{DropRate: rate, Sessions: sessions}

	srv, err := server.New(server.Config{
		Circuits: []server.CircuitSpec{{
			ID:      w.Name,
			Circuit: c,
			Inputs:  func() []bool { return garblerBits },
		}},
		Seed:            19,
		AllowInsecureOT: true,
	})
	if err != nil {
		return row, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	plan, err := circuit.NewPlan(c)
	if err != nil {
		return row, err
	}
	dialer := &faultnet.Dialer{Plan: faultnet.Plan{Seed: seed, DropRate: rate}}
	retry := server.RetryPolicy{
		MaxAttempts:      200,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		HandshakeTimeout: time.Second,
		Seed:             seed + 1,
	}

	_, evalBits := w.Inputs(5)
	want, err := c.Eval(garblerBits, evalBits)
	if err != nil {
		return row, err
	}

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	stats := make(chan server.ClientStats, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			retry := retry
			retry.Seed += uint64(i)
			sess, err := server.Dial(ln.Addr().String(), w.Name, c, server.Options{
				OT:     ot.Insecure,
				Plan:   plan,
				Retry:  retry,
				Dialer: dialer.Dial,
			})
			if err != nil {
				errs <- fmt.Errorf("session %d: dial: %w", i, err)
				return
			}
			defer sess.Close()
			for r := 0; r < runsPerSession; r++ {
				out, err := sess.Run(evalBits)
				if err != nil {
					errs <- fmt.Errorf("session %d run %d: %w", i, r, err)
					return
				}
				for j := range want {
					if out[j] != want[j] {
						errs <- fmt.Errorf("session %d run %d: output %d diverged from plaintext oracle", i, r, j)
						return
					}
				}
			}
			stats <- sess.Stats()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	close(stats)
	for err := range errs {
		return row, err
	}

	for st := range stats {
		row.Runs += int(st.Runs)
		row.Reconnects += st.Reconnects
		row.Retries += st.Retries
		row.DialFails += st.DialFailures
	}
	row.RunsPerSec = float64(row.Runs) / elapsed.Seconds()
	row.Drops = dialer.Stats().Drops.Load()
	// Every client has closed; once the server has retired every
	// session, each broken run it saw is in RunsFailed.
	st, err := waitStats(srv, func(st server.Stats) bool { return st.ActiveSessions == 0 })
	if err != nil {
		return row, err
	}
	row.SrvFailed = st.RunsFailed
	return row, nil
}
