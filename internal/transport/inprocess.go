package transport

import (
	"net"
	"runtime"
	"sync"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// RunInProcess runs the protocol inside this process: a Coordinator for
// g serves in-memory net.Pipe connections, one per contiguous vertex set,
// and each set's node loop runs on the other end in its own goroutine,
// vertex v drawing from master.Stream(v). There is one set per
// GOMAXPROCS, and more where a set would pass MaxClaim, so a run holds
// O(sets) goroutines, connections and deadline timers, not O(n). It
// opens no socket. Every goroutine it starts has returned when it
// returns, on every path.
func RunInProcess(g *graph.Graph, factory beep.Factory, master *rng.Source, opts CoordinatorOptions) (*CoordinatorResult, error) {
	n := g.N()
	sets := min(n, max(runtime.GOMAXPROCS(0), (n+MaxClaim-1)/MaxClaim))
	ln := &pipeListener{conns: make([]net.Conn, sets)}
	nodeOpts := NodeOptions{IOTimeout: opts.IOTimeout}
	var wg sync.WaitGroup
	for s := range ln.conns {
		coordEnd, nodeEnd := net.Pipe()
		ln.conns[s] = coordEnd
		vertices := make([]int, 0, n/sets+1)
		for v := s * n / sets; v < (s+1)*n/sets; v++ {
			vertices = append(vertices, v)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = nodeEnd.Close() }()
			// A node's failure reaches Serve as a failed exchange on this
			// connection, so Serve's error reports the run.
			_, _ = runNode(nodeEnd, vertices, factory, master, nodeOpts)
		}()
	}
	res, err := (&Coordinator{g: g, ln: ln}).Serve(opts)
	// Serve closes every connection it accepted. When it fails before
	// accepting them all, close the rest, whose nodes wait on them.
	for _, conn := range ln.conns {
		_ = conn.Close()
	}
	wg.Wait()
	return res, err
}

// pipeListener hands Serve the coordinator ends of pipes made up front,
// so an in-process node is accepted and handshaken as a TCP one is.
// Only Serve's goroutine calls Accept.
type pipeListener struct {
	conns []net.Conn // not yet accepted
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if len(l.conns) == 0 {
		return nil, net.ErrClosed
	}
	conn := l.conns[0]
	l.conns = l.conns[1:]
	return conn, nil
}

func (l *pipeListener) Close() error { return nil }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// pipeAddr names the in-memory network.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
