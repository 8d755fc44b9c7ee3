package transport

import (
	"net"
	"sync"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// RunInProcess runs the protocol inside this process: a Coordinator for
// g serves one in-memory net.Pipe connection per vertex, and each
// vertex's node loop runs on the other end in its own goroutine, drawing
// from master.Stream(vertex). It opens no socket. Every goroutine it
// starts has returned when it returns, on every path. During an exchange
// a run holds about 2·g.N() of them, so a run under the race detector,
// which stops at 8128 live goroutines, needs well under 4000 vertices.
func RunInProcess(g *graph.Graph, factory beep.Factory, master *rng.Source, opts CoordinatorOptions) (*CoordinatorResult, error) {
	ln := &pipeListener{conns: make([]net.Conn, g.N())}
	nodeOpts := NodeOptions{IOTimeout: opts.IOTimeout}
	var wg sync.WaitGroup
	for v := range ln.conns {
		coordEnd, nodeEnd := net.Pipe()
		ln.conns[v] = coordEnd
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = nodeEnd.Close() }()
			// A node's failure reaches Serve as a failed exchange on this
			// connection, so Serve's error reports the run.
			_, _ = runNode(nodeEnd, v, factory, master.Stream(uint64(v)), nodeOpts)
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
