package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"haac/internal/gc"
	"haac/internal/label"
)

// tracer holds the traced run's instruments, all outside the program:
// a counting hasher handed to the servers, a counting listener under
// them, and a counting dialer per client. Spans stay in memory until
// the run ends.
type tracer struct {
	t0     time.Time
	hasher countingHasher
	server connStats
}

// span is one timed call into the serving stack. Spans of one op share
// Op; the "op" span also carries the client transport's blocked time.
type span struct {
	Op      uint64 `json:"op"`
	Client  int    `json:"client"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	ReadNs  int64  `json:"read_ns,omitempty"`
	WriteNs int64  `json:"write_ns,omitempty"`
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingHasher counts every hash call and forwards it, batched calls
// included, to the re-keyed hasher the servers use by default — so
// the same code path runs.
type countingHasher struct {
	calls atomic.Uint64
}

var (
	_ gc.Hasher2 = (*countingHasher)(nil)
	_ gc.Hasher4 = (*countingHasher)(nil)
)

func (h *countingHasher) Hash(l label.L, tweak uint64) label.L {
	h.calls.Add(1)
	return gc.RekeyedHasher{}.Hash(l, tweak)
}

func (h *countingHasher) Hash2(l0, l1 label.L, t0, t1 uint64) (label.L, label.L) {
	h.calls.Add(1)
	return gc.RekeyedHasher{}.Hash2(l0, l1, t0, t1)
}

func (h *countingHasher) Hash4(l0, l1, l2, l3 label.L, t0, t1, t2, t3 uint64) (label.L, label.L, label.L, label.L) {
	h.calls.Add(1)
	return gc.RekeyedHasher{}.Hash4(l0, l1, l2, l3, t0, t1, t2, t3)
}

func (h *countingHasher) Name() string { return gc.RekeyedHasher{}.Name() }

// connStats accumulates transport activity across connections: time
// blocked in Read and Write, call counts and bytes.
type connStats struct {
	readNs, writeNs atomic.Int64
	reads, writes   atomic.Int64
	in, out         atomic.Int64
}

// dialer is a server.Options.Dialer that counts through s.
func (s *connStats) dialer(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countingConn{c, s}, nil
}

type countingConn struct {
	net.Conn
	s *connStats
}

func (c countingConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.s.readNs.Add(int64(time.Since(t)))
	c.s.reads.Add(1)
	c.s.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.s.writeNs.Add(int64(time.Since(t)))
	c.s.writes.Add(1)
	c.s.out.Add(int64(n))
	return n, err
}

// countingListener hands Serve connections that count through s.
type countingListener struct {
	net.Listener
	s *connStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.s}, nil
}

// connTotals is a plain snapshot of connStats.
type connTotals struct {
	readNs, writeNs, reads, writes, in, out int64
}

func (t *connTotals) add(s *connStats) {
	t.readNs += s.readNs.Load()
	t.writeNs += s.writeNs.Load()
	t.reads += s.reads.Load()
	t.writes += s.writes.Load()
	t.in += s.in.Load()
	t.out += s.out.Load()
}

func (t connTotals) sub(u connTotals) connTotals {
	return connTotals{t.readNs - u.readNs, t.writeNs - u.writeNs, t.reads - u.reads,
		t.writes - u.writes, t.in - u.in, t.out - u.out}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapPeak samples the Go heap in use (the runtime's HeapInuse) every
// 5 ms without stopping the world, keeping the highest value until
// stop.
type heapPeak struct {
	quit chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-h.quit:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.quit)
	return <-h.done
}
