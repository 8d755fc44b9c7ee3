package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: TypeHello, Payload: claimPayload([]int{42, 7})},
		{Type: TypeWelcome, Payload: []byte{0, 0, 0, 10, 0, 0, 0, 5}},
		{Type: TypeBeep, Payload: []byte{0x05, 0x01}},
		{Type: TypeOutcome, Payload: []byte{byte(beep.StateActive), byte(beep.StateDominated) | neighborJoinedFlag}},
		{Type: TypeStop, Payload: []byte{byte(beep.StateInMIS)}},
		{Type: TypeStop},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Type: 1, Payload: make([]byte, MaxFrameSize+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
	// Forged oversized header on the read side.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read err = %v", err)
	}
}

func TestFrameZeroLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, 1})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, Frame{Type: TypeBeep, Payload: []byte{1}})
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestConnRoundTripOverPipe sends frames longer than a Conn's 4 KiB
// buffers — a MaxFrameSize payload and a long reject reason — through
// Conns on both ends of a pipe.
func TestConnRoundTripOverPipe(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, MaxFrameSize)
	reason := []byte(strings.Repeat("vertex 7 already hosted; ", 200))
	frames := []Frame{
		{Type: TypeBeep, Payload: big},
		{Type: TypeReject, Payload: reason},
		{Type: TypeStop},
	}
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	sendErr := make(chan error, 1)
	go func() {
		fc := NewConn(a)
		for _, f := range frames {
			if err := fc.Send(f); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	fc := NewConn(b)
	for i, want := range frames {
		got, err := fc.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: type %d with %d payload bytes, want type %d with %d",
				i, got.Type, len(got.Payload), want.Type, len(want.Payload))
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
}

// TestPayloadHelpers round-trips the payloads of the hello (a claim)
// and of the bit frames (beep, heard and join), and feeds the bit
// decoder frames of the wrong length or with padding bits set.
func TestPayloadHelpers(t *testing.T) {
	vertices := []int{9, 0, 3, 8}
	claim, err := readClaim(claimPayload(vertices), 10, graph.NewBitset(10))
	if err != nil || !slices.Equal(claim, vertices) {
		t.Fatalf("claim round trip: %v %v, want %v", claim, err, vertices)
	}
	for _, k := range []int{1, 7, 8, 9, 64, 65, 1000} {
		want := graph.NewBitset(k)
		for i := 0; i < k; i += 3 {
			want.Set(i)
		}
		want.Set(k - 1)
		f := Frame{Type: TypeHeard, Payload: bitsPayload(make([]byte, (k+7)/8), k, want.Test)}
		got := graph.NewBitset(k)
		if err := payloadBits(f, k, got.Set); err != nil || !slices.Equal(got, want) {
			t.Fatalf("k=%d: bits round trip gave %v, %v", k, got, err)
		}
	}
	for _, c := range []struct {
		name    string
		k       int
		payload []byte
	}{
		{"empty", 1, nil},
		{"a byte too long", 8, []byte{0xFF, 0}},
		{"a byte too short", 9, []byte{0xFF}},
		{"padding bit set", 3, []byte{0x08}},
		{"top padding bit set", 15, []byte{0, 0x80}},
	} {
		err := payloadBits(Frame{Type: TypeJoin, Payload: c.payload}, c.k, func(int) { t.Fatalf("%s: bit taken", c.name) })
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err = %v, want ErrBadFrame", c.name, err)
		}
	}
}

// runDistributed runs a full coordinator + node deployment over
// loopback TCP, three node connections claiming the interleaved vertex
// sets v mod 3, checks every node's view of the run against the
// coordinator's, and returns the coordinator result.
func runDistributed(t *testing.T, g *graph.Graph, factory beep.Factory, seed uint64) *CoordinatorResult {
	t.Helper()
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()

	const sets = 3
	var (
		wg       sync.WaitGroup
		claims   [sets][]int
		nodeRes  [sets]*NodeResult
		nodeErrs [sets]error
	)
	for v := range g.N() {
		claims[v%sets] = append(claims[v%sets], v)
	}
	for s := range sets {
		if len(claims[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodeRes[s], nodeErrs[s] = RunNode(coord.Addr(), claims[s], factory, rng.New(seed), NodeOptions{})
		}()
	}
	coordRes, err := coord.Serve(CoordinatorOptions{})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for s, err := range nodeErrs {
		if err != nil {
			t.Fatalf("node %d: %v", s, err)
		}
		if len(claims[s]) == 0 {
			continue
		}
		nr := nodeRes[s]
		if nr.Rounds != coordRes.Rounds {
			t.Fatalf("node %d rounds %d, coordinator %d", s, nr.Rounds, coordRes.Rounds)
		}
		for i, v := range claims[s] {
			if (nr.States[i] == beep.StateInMIS) != coordRes.InMIS[v] {
				t.Fatalf("vertex %d: node view %v, coordinator view %v", v, nr.States[i], coordRes.InMIS[v])
			}
			if nr.Beeps[i] != coordRes.Beeps[v] {
				t.Fatalf("vertex %d beeps %d, coordinator counted %d", v, nr.Beeps[i], coordRes.Beeps[v])
			}
			if !nr.States[i].Terminal() {
				t.Fatalf("vertex %d ended non-terminal", v)
			}
		}
	}
	return coordRes
}

// runProtocol runs factory on g from master seed seed, over loopback TCP
// or in process, and fails the test if the run does not finish.
func runProtocol(t *testing.T, g *graph.Graph, factory beep.Factory, seed uint64, tcp bool) *CoordinatorResult {
	t.Helper()
	if tcp {
		return runDistributed(t, g, factory, seed)
	}
	res, err := RunInProcess(g, factory, rng.New(seed), CoordinatorOptions{})
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	return res
}

func mustFeedback(t *testing.T, cfg mis.FeedbackConfig) beep.Factory {
	t.Helper()
	f, err := mis.NewFeedback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDistributedRunProducesMIS runs the protocol to a verified MIS over
// loopback TCP and, on every graph family including the edgeless and
// zero-vertex graphs, in process.
func TestDistributedRunProducesMIS(t *testing.T) {
	f := mustFeedback(t, mis.FeedbackConfig{})
	type misCase struct {
		name string
		g    *graph.Graph
	}
	groups := []struct {
		name  string
		tcp   bool
		seed  uint64
		cases []misCase
	}{
		{name: "tcp", tcp: true, seed: 99, cases: []misCase{{"gnp", graph.GNP(30, 0.3, rng.New(1))}}},
		{name: "in-process", seed: 9, cases: []misCase{
			{"gnp", graph.GNP(60, 0.5, rng.New(1))},
			{"complete", graph.Complete(20)},
			{"grid", graph.Grid(6, 6)},
			{"star", graph.Star(15)},
			{"path", graph.Path(25)},
			{"edgeless", graph.Empty(8)},
			{"zero", graph.Empty(0)},
		}},
	}
	for _, grp := range groups {
		t.Run(grp.name, func(t *testing.T) {
			for _, c := range grp.cases {
				t.Run(c.name, func(t *testing.T) {
					res := runProtocol(t, c.g, f, grp.seed, grp.tcp)
					if err := graph.VerifyMIS(c.g, res.InMIS); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestDistributedMatchesSimulator is the strongest transport test: the
// protocol, over TCP and in process, must reproduce the simulator's
// execution exactly — same rounds, same per-vertex beeps, same MIS —
// since the per-vertex randomness streams are identical. Its groups are
// the loopback-TCP run; every beeping schedule on the generator
// families; the Science'11 schedule past its restart; and the jittered
// feedback variant, which draws its per-step factors inside Observe and
// so diverges unless both sides call Beep and Observe in the same
// per-node order.
func TestDistributedMatchesSimulator(t *testing.T) {
	type simCase struct {
		name      string
		g         *graph.Graph
		factory   beep.Factory
		seed      uint64
		minRounds int // the run must take more rounds than this
		procs     int // GOMAXPROCS for the run when non-zero
	}
	tcpCases := []simCase{{
		name: "gnp-25/feedback", g: graph.GNP(25, 0.4, rng.New(2)),
		factory: mustFeedback(t, mis.FeedbackConfig{}), seed: 1234,
	}}

	var schedules []simCase
	src := rng.New(2)
	gnpHalf := graph.GNP(80, 0.5, src)
	gnpSparse := graph.GNP(150, 0.03, src)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-half", gnpHalf},
		{"gnp-sparse", gnpSparse},
		{"complete", graph.Complete(30)},
		{"grid", graph.Grid(7, 8)},
		{"cliques", graph.CliqueFamily(300)},
		{"star", graph.Star(40)},
	}
	for _, fam := range families {
		for _, algo := range []string{mis.NameFeedback, mis.NameGlobalSweep, mis.NameAfek} {
			factory, err := mis.NewFactory(mis.Spec{Name: algo})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(100); seed < 103; seed++ {
				schedules = append(schedules, simCase{name: fmt.Sprintf("%s/%s/seed-%d", fam.name, algo, seed),
					g: fam.g, factory: factory, seed: seed})
			}
		}
	}
	// Two vertex sets of 10,000, so each outcome frame passes bufio's
	// 4 KiB buffers at both ends.
	schedules = append(schedules, simCase{name: "gnp-20000-sparse/feedback/seed-100",
		g: graph.GNP(20000, 5.0/20000, rng.New(3)), factory: mustFeedback(t, mis.FeedbackConfig{}), seed: 100, procs: 2})

	// The Science'11 schedule with one step per level restarts at
	// 1/(D+1) after one level per probability from 1/(D+1) doubling up
	// to 1/2; every seed's run must cross that restart.
	var restarts []simCase
	restartG := graph.GNP(200, 0.5, rng.New(4))
	restart, err := mis.NewFactory(mis.Spec{Name: mis.NameAfek, Afek: mis.AfekOriginalConfig{StepsPerLevel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cycle := 1
	for p := 1 / float64(restartG.MaxDegree()+1); p < 0.5; p = min(2*p, 0.5) {
		cycle++
	}
	for seed := uint64(0); seed < 3; seed++ {
		restarts = append(restarts, simCase{name: fmt.Sprintf("gnp-200-half/seed-%d", seed),
			g: restartG, factory: restart, seed: seed, minRounds: cycle})
	}

	var jitteredCases []simCase
	jittered := mustFeedback(t, mis.FeedbackConfig{
		Factor:       1.3,
		FactorMax:    4,
		InitialPByID: []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5},
	})
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-70", graph.GNP(70, 0.4, rng.New(1))},
		{"cliques", graph.CliqueFamily(300)},
		{"grid-6x8", graph.Grid(6, 8)},
	} {
		for seed := uint64(40); seed < 43; seed++ {
			jitteredCases = append(jitteredCases, simCase{name: fmt.Sprintf("%s/seed-%d", fam.name, seed),
				g: fam.g, factory: jittered, seed: seed})
		}
	}

	groups := []struct {
		name  string
		tcp   bool // over loopback TCP instead of in process
		cases []simCase
	}{
		{"tcp", true, tcpCases},
		{"engine-equivalence", false, schedules},
		{"afek-restart", false, restarts},
		{"variable-factors", false, jitteredCases},
	}
	for _, grp := range groups {
		t.Run(grp.name, func(t *testing.T) {
			for _, c := range grp.cases {
				t.Run(c.name, func(t *testing.T) {
					if c.procs > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
					}
					simRes, err := sim.Run(c.g, c.factory, rng.New(c.seed), sim.Options{})
					if err != nil {
						t.Fatalf("sim: %v", err)
					}
					if err := graph.VerifyMIS(c.g, simRes.InMIS); err != nil {
						t.Fatal(err)
					}
					if simRes.Rounds <= c.minRounds {
						t.Fatalf("%d rounds, want more than %d", simRes.Rounds, c.minRounds)
					}
					res := runProtocol(t, c.g, c.factory, c.seed, grp.tcp)
					if res.Rounds != simRes.Rounds || res.TotalBeeps != simRes.TotalBeeps {
						t.Fatalf("rounds %d, sim %d; beeps %d, sim %d",
							res.Rounds, simRes.Rounds, res.TotalBeeps, simRes.TotalBeeps)
					}
					for v := range simRes.InMIS {
						if res.InMIS[v] != simRes.InMIS[v] {
							t.Fatalf("vertex %d membership differs from simulator", v)
						}
						if res.Beeps[v] != simRes.Beeps[v] {
							t.Fatalf("vertex %d beeps %d, sim %d", v, res.Beeps[v], simRes.Beeps[v])
						}
					}
				})
			}
		})
	}
}

func TestDistributedSingleVertex(t *testing.T) {
	f := mustFeedback(t, mis.FeedbackConfig{})
	for _, c := range []struct {
		name string
		tcp  bool
		seed uint64
	}{{"tcp", true, 5}, {"in-process", false, 6}} {
		t.Run(c.name, func(t *testing.T) {
			if res := runProtocol(t, graph.Empty(1), f, c.seed, c.tcp); !res.InMIS[0] {
				t.Fatal("lone vertex must join")
			}
		})
	}
}

func TestInProcessDeterministic(t *testing.T) {
	g := graph.GNP(50, 0.4, rng.New(4))
	f := mustFeedback(t, mis.FeedbackConfig{})
	a := runProtocol(t, g, f, 5, false)
	b := runProtocol(t, g, f, 5, false)
	if a.Rounds != b.Rounds || a.TotalBeeps != b.TotalBeeps {
		t.Fatalf("rounds %d/%d, beeps %d/%d for one seed", a.Rounds, b.Rounds, a.TotalBeeps, b.TotalBeeps)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] || a.Beeps[v] != b.Beeps[v] {
			t.Fatalf("vertex %d differs across invocations", v)
		}
	}
}

// goroutineProbe wraps an automaton and records the peak goroutine
// count that any Beep call sees.
type goroutineProbe struct {
	beep.Automaton
	peak *atomic.Int64
}

func (p goroutineProbe) Beep(r *rng.Source) bool {
	for g := int64(runtime.NumGoroutine()); ; {
		peak := p.peak.Load()
		if g <= peak || p.peak.CompareAndSwap(peak, g) {
			break
		}
	}
	return p.Automaton.Beep(r)
}

// TestInProcessVertexSets runs one graph in process at GOMAXPROCS 1, 2
// and 5, so one, two and five vertex sets: every run gives the same
// result, and none holds more goroutines than one per set, beside the
// caller's, while its automata run.
func TestInProcessVertexSets(t *testing.T) {
	g := graph.GNP(500, 0.02, rng.New(8))
	f := mustFeedback(t, mis.FeedbackConfig{})
	var first *CoordinatorResult
	for _, procs := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var peak atomic.Int64
			probe := func(info beep.NodeInfo) beep.Automaton { return goroutineProbe{f(info), &peak} }
			baseline := runtime.NumGoroutine()
			res := runProtocol(t, g, probe, 11, false)
			if bound := int64(baseline + procs + 1); peak.Load() > bound {
				t.Fatalf("%d goroutines during the run, want at most %d", peak.Load(), bound)
			}
			if first == nil {
				first = res
				return
			}
			if res.Rounds != first.Rounds || !slices.Equal(res.InMIS, first.InMIS) || !slices.Equal(res.Beeps, first.Beeps) {
				t.Fatalf("%d rounds, %d beeps; GOMAXPROCS 1 gave %d rounds, %d beeps, or another set or beep count",
					res.Rounds, res.TotalBeeps, first.Rounds, first.TotalBeeps)
			}
		})
	}
}

// stallingNode sleeps through its first beep decision, past the
// coordinator's round deadline.
type stallingNode struct{}

func (stallingNode) Beep(*rng.Source) bool { time.Sleep(stallSleep); return false }
func (stallingNode) Observe(beep.Outcome)  {}

// A stalled node sleeps stallSleep, ten times the coordinator's
// stallTimeout, and the goroutine check waits at most goroutineGrace:
// a run that returned without joining its sleeping nodes fails it.
const (
	stallTimeout   = 100 * time.Millisecond
	stallSleep     = 10 * stallTimeout
	goroutineGrace = stallSleep / 2
)

// TestInProcessEndings runs the in-process protocol to each way a run
// ends — finished, capped, and failed, early or mid-round — and checks
// the error it returns and that every goroutine it started is gone.
func TestInProcessEndings(t *testing.T) {
	fixed, err := mis.NewFixedProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 stalls. Its set's node loop would serialise the sleeps of
	// every stalling vertex in the set, so it is the only one.
	stalling := func(info beep.NodeInfo) beep.Automaton {
		if info.ID == 0 {
			return stallingNode{}
		}
		return silentNode{}
	}
	cases := []struct {
		name       string
		g          *graph.Graph
		factory    beep.Factory
		opts       CoordinatorOptions
		wantErr    error // nil: the run finishes
		anyErr     bool  // the run fails, at whichever exchange first
		wantRounds int   // checked when non-zero
	}{
		{name: "finished", g: graph.GNP(60, 0.5, rng.New(1)), factory: mustFeedback(t, mis.FeedbackConfig{})},
		{name: "round cap", g: graph.Complete(30), factory: fixed, opts: CoordinatorOptions{MaxRounds: 50},
			wantErr: ErrTooManyRounds, wantRounds: 50},
		{name: "stalled node", g: graph.GNP(20, 0.3, rng.New(2)), factory: stalling,
			opts: CoordinatorOptions{IOTimeout: stallTimeout}, wantErr: os.ErrDeadlineExceeded},
		{name: "expired deadlines", g: graph.GNP(30, 0.3, rng.New(3)), factory: mustFeedback(t, mis.FeedbackConfig{}),
			opts: CoordinatorOptions{IOTimeout: time.Nanosecond}, anyErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			res, err := RunInProcess(c.g, c.factory, rng.New(3), c.opts)
			switch {
			case c.anyErr:
				if err == nil {
					t.Fatal("run succeeded")
				}
			case !errors.Is(err, c.wantErr):
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if c.wantErr == nil && !c.anyErr {
				if err := graph.VerifyMIS(c.g, res.InMIS); err != nil {
					t.Fatal(err)
				}
			}
			if c.wantRounds != 0 && res.Rounds != c.wantRounds {
				t.Fatalf("rounds = %d, want %d", res.Rounds, c.wantRounds)
			}
			// RunInProcess has joined its goroutines; give the last of
			// them the moment they need to exit after signalling that.
			deadline := time.Now().Add(goroutineGrace)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// silentNode never beeps, so its join bit is always false.
type silentNode struct{}

func (silentNode) Beep(*rng.Source) bool { return false }
func (silentNode) Observe(beep.Outcome)  {}

// TestNodeRejectsInconsistentOutcome plays the coordinator to a node
// whose vertices never beep, over a pipe, and ends their first step with
// one stop frame carrying their outcomes: each vertex takes the state its
// own join bit and the frame's neighbour-joined flag give, and the node
// refuses a frame of the wrong length, or any other state, as it refuses
// a welcome of the wrong length.
func TestNodeRejectsInconsistentOutcome(t *testing.T) {
	const (
		active    = byte(beep.StateActive)
		dominated = byte(beep.StateDominated)
		joined    = neighborJoinedFlag
	)
	cases := []struct {
		name     string
		vertices []int
		welcome  []byte // nil: n = 8, max degree 0
		outcome  []byte // one byte per vertex
		want     []beep.State
		wantErr  bool
	}{
		{"still active", []int{0}, nil, []byte{active}, []beep.State{beep.StateActive}, false},
		{"dominated by a joined neighbour", []int{0}, nil, []byte{dominated | joined}, []beep.State{beep.StateDominated}, false},
		{"unknown state code", []int{0}, nil, []byte{9}, nil, true},
		{"in-mis without a join", []int{0}, nil, []byte{byte(beep.StateInMIS)}, nil, true},
		{"dominated without a neighbour join", []int{0}, nil, []byte{dominated}, nil, true},
		{"outcome of the wrong length", []int{0}, nil, []byte{active, active}, nil, true},
		{"welcome of the wrong length", []int{0}, []byte{0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}, nil, nil, true},
		{"several vertices", []int{3, 0, 7}, nil, []byte{active, dominated | joined, active},
			[]beep.State{beep.StateActive, beep.StateDominated, beep.StateActive}, false},
		{"several vertices, one inconsistent", []int{3, 0, 7}, nil, []byte{active, dominated, active}, nil, true},
	}
	silent := func(beep.NodeInfo) beep.Automaton { return silentNode{} }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			coordEnd, nodeEnd := net.Pipe()
			defer func() { _ = coordEnd.Close() }()
			type nodeRun struct {
				res *NodeResult
				err error
			}
			done := make(chan nodeRun, 1)
			go func() {
				defer func() { _ = nodeEnd.Close() }()
				res, err := runNode(nodeEnd, c.vertices, silent, rng.New(1), NodeOptions{IOTimeout: 10 * time.Second})
				done <- nodeRun{res, err}
			}()
			// Play the step until the node drops out; its result says
			// how it ended.
			welcome := c.welcome
			if welcome == nil {
				welcome = []byte{0, 0, 0, 8, 0, 0, 0, 0}
			}
			fc := NewConn(coordEnd)
			zeros := make([]byte, (len(c.vertices)+7)/8)
			_, err := fc.Expect(TypeHello)
			if err == nil {
				err = fc.Send(Frame{Type: TypeWelcome, Payload: welcome})
			}
			if err == nil {
				_, err = fc.Expect(TypeBeep)
			}
			if err == nil {
				err = fc.Send(Frame{Type: TypeHeard, Payload: zeros})
			}
			if err == nil {
				_, err = fc.Expect(TypeJoin)
			}
			if err == nil {
				_ = fc.Send(Frame{Type: TypeStop, Payload: c.outcome})
			}
			got := <-done
			if c.wantErr {
				if !errors.Is(got.err, ErrBadFrame) {
					t.Fatalf("err = %v, want ErrBadFrame", got.err)
				}
				return
			}
			if got.err != nil {
				t.Fatal(got.err)
			}
			if !slices.Equal(got.res.States, c.want) || got.res.Rounds != 1 {
				t.Fatalf("states %v after %d rounds, want %v after 1", got.res.States, got.res.Rounds, c.want)
			}
		})
	}
}

// step is one round of a scripted vertex: the beep and join bits it
// sends, whatever the protocol allows, or a raw beep payload in place of
// its beep bit.
type step struct {
	beep, join bool
	raw        []byte
}

// bit is a one-vertex bit frame's payload.
func bit(b bool) []byte {
	if b {
		return []byte{1}
	}
	return []byte{0}
}

// serveScripted serves a Coordinator for g over pipes whose other ends
// are scripted vertices, one connection each: vertex v claims itself,
// then sends script[v][r]'s bits in round r, reading every frame the
// coordinator sends, until its script or the connection ends. It returns
// what Serve returns, once every scripted vertex has stopped.
func serveScripted(g *graph.Graph, script [][]step) (*CoordinatorResult, error) {
	ln := &pipeListener{conns: make([]net.Conn, g.N())}
	var wg sync.WaitGroup
	for v := range ln.conns {
		coordEnd, nodeEnd := net.Pipe()
		ln.conns[v] = coordEnd
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { _ = nodeEnd.Close() }()
			fc := NewConn(nodeEnd)
			if fc.Send(Frame{Type: TypeHello, Payload: claimPayload([]int{v})}) != nil {
				return
			}
			if _, err := fc.Expect(TypeWelcome); err != nil {
				return
			}
			for _, st := range script[v] {
				beepPayload := st.raw
				if beepPayload == nil {
					beepPayload = bit(st.beep)
				}
				if fc.Send(Frame{Type: TypeBeep, Payload: beepPayload}) != nil {
					return
				}
				if _, err := fc.Expect(TypeHeard); err != nil {
					return
				}
				if fc.Send(Frame{Type: TypeJoin, Payload: bit(st.join)}) != nil {
					return
				}
				if f, err := fc.Recv(); err != nil || f.Type == TypeStop {
					return
				}
			}
		}()
	}
	res, err := (&Coordinator{g: g, ln: ln}).Serve(CoordinatorOptions{IOTimeout: 10 * time.Second})
	for _, conn := range ln.conns {
		_ = conn.Close()
	}
	wg.Wait()
	return res, err
}

// TestCoordinatorRejectsForbiddenBits plays scripted vertices to a
// Coordinator over pipes. Only an active vertex may beep, and only an
// active vertex that beeped and heard nothing may join: any other bit
// fails the run with ErrBadFrame naming the round and the vertex,
// instead of a result such as two adjacent members of the set. So does a
// bit frame of the wrong length or with a padding bit set.
func TestCoordinatorRejectsForbiddenBits(t *testing.T) {
	silent, joins := step{}, step{beep: true, join: true}
	cases := []struct {
		name    string
		g       *graph.Graph
		script  [][]step
		wantErr string // "" for a run that succeeds
		inMIS   []bool
	}{
		{"allowed bits", graph.Path(2), [][]step{{joins}, {silent}}, "", []bool{true, false}},
		{"join without a beep", graph.Path(2), [][]step{{joins}, {{join: true}}}, "round 1: vertex 1", nil},
		{"join after hearing a beep", graph.Path(2), [][]step{{{beep: true}}, {joins}}, "round 1: vertex 1", nil},
		// Round 1 dominates vertex 1 and leaves vertex 2 active.
		{"join while dominated", graph.Path(3), [][]step{{joins, silent}, {silent, {join: true}}, {silent, silent}}, "round 2: vertex 1", nil},
		{"beep while dominated", graph.Path(3), [][]step{{joins, silent}, {silent, {beep: true}}, {silent, silent}}, "round 2: vertex 1", nil},
		{"beep while in the set", graph.Path(3), [][]step{{joins, {beep: true}}, {silent, silent}, {silent, silent}}, "round 2: vertex 0", nil},
		{"beep frame too long", graph.Path(2), [][]step{{silent}, {{raw: []byte{1, 0}}}}, "round 1 beeps: peer claiming 1 vertices from vertex 1", nil},
		{"beep frame with a padding bit", graph.Path(2), [][]step{{silent}, {{raw: []byte{2}}}}, "round 1 beeps: peer claiming 1 vertices from vertex 1", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := serveScripted(c.g, c.script)
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.InMIS, c.inMIS) {
					t.Fatalf("InMIS %v, want %v", res.InMIS, c.inMIS)
				}
				return
			}
			if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Serve = %v, %v; want an ErrBadFrame naming %q", res, err, c.wantErr)
			}
		})
	}
}

// TestCoordinatorRejectsBadHello sends hellos over pipes to a Coordinator
// for four vertices. A claim that is empty, not whole uint32s, over
// MaxClaim, out of range or overlapping fails the run with the error
// named, and the offending connection gets a reject frame that says
// why; a claim that overlaps only another is welcomed first.
func TestCoordinatorRejectsBadHello(t *testing.T) {
	cases := []struct {
		name    string
		hellos  [][]byte
		wantErr error
		reason  string // in the reject frame the last hello gets
	}{
		{"empty claim", [][]byte{{}}, ErrBadFrame, "hello of 0 bytes"},
		{"length not a multiple of 4", [][]byte{{0, 0, 0, 1, 0}}, ErrBadFrame, "hello of 5 bytes"},
		{"claim over MaxClaim", [][]byte{make([]byte, 4*(MaxClaim+1))}, ErrBadFrame, fmt.Sprintf("1 to %d vertices", MaxClaim)},
		{"out-of-range vertex", [][]byte{claimPayload([]int{0, 4})}, graph.ErrVertexRange, "vertex 4 with n=4"},
		{"vertex listed twice in one hello", [][]byte{claimPayload([]int{1, 2, 1})}, ErrVertexClaimed, "vertex 1 (a node process already hosts it"},
		{"vertex listed in two hellos", [][]byte{claimPayload([]int{0, 1}), claimPayload([]int{2, 1})}, ErrVertexClaimed, "vertex 1 (a node process already hosts it"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ln := &pipeListener{conns: make([]net.Conn, len(c.hellos))}
			replies := make([]Frame, len(c.hellos))
			var wg sync.WaitGroup
			for i := range ln.conns {
				coordEnd, nodeEnd := net.Pipe()
				ln.conns[i] = coordEnd
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { _ = nodeEnd.Close() }()
					fc := NewConn(nodeEnd)
					if fc.Send(Frame{Type: TypeHello, Payload: c.hellos[i]}) == nil {
						replies[i], _ = fc.Recv()
					}
				}()
			}
			_, err := (&Coordinator{g: graph.Empty(4), ln: ln}).Serve(CoordinatorOptions{IOTimeout: 10 * time.Second})
			for _, conn := range ln.conns {
				_ = conn.Close()
			}
			wg.Wait()
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Serve err = %v, want %v", err, c.wantErr)
			}
			for i, f := range replies[:len(replies)-1] {
				if f.Type != TypeWelcome {
					t.Fatalf("hello %d got frame type %d, want a welcome", i, f.Type)
				}
			}
			last := replies[len(replies)-1]
			if last.Type != TypeReject || !strings.Contains(string(last.Payload), c.reason) {
				t.Fatalf("last hello got type %d %q, want a reject naming %q", last.Type, last.Payload, c.reason)
			}
		})
	}
}

func TestCoordinatorRejectsDuplicateClaim(t *testing.T) {
	g := graph.Empty(2)
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()

	serveErr := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{})
		serveErr <- err
	}()

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes claim vertex 0; whichever arrives second must sink the
	// run.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			_, _ = RunNode(coord.Addr(), []int{0}, factory, rng.New(1), NodeOptions{})
		}()
	}
	if err := <-serveErr; !errors.Is(err, ErrVertexClaimed) {
		t.Fatalf("Serve err = %v, want ErrVertexClaimed", err)
	}
	<-done
	<-done
}

func TestCoordinatorRejectsOutOfRangeVertex(t *testing.T) {
	g := graph.Empty(1)
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	serveErr := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{})
		serveErr <- err
	}()
	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = RunNode(coord.Addr(), []int{5}, factory, rng.New(1), NodeOptions{})
	}()
	if err := <-serveErr; !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("Serve err = %v, want ErrVertexRange", err)
	}
}

// TestNodeSeesClearRejection pins the TypeReject path: a node process
// whose vertex is already hosted elsewhere (overlapping -vertices
// ranges) must learn why, not just read EOF.
func TestNodeSeesClearRejection(t *testing.T) {
	g := graph.Empty(2)
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	serveErr := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{})
		serveErr <- err
	}()
	// First claim of vertex 0 succeeds at handshake time.
	first, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = first.Close() }()
	fc := NewConn(first)
	if err := fc.Send(Frame{Type: TypeHello, Payload: claimPayload([]int{0})}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Expect(TypeWelcome); err != nil {
		t.Fatal(err)
	}
	// The overlapping second claim must get the reason back.
	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunNode(coord.Addr(), []int{0}, factory, rng.New(1), NodeOptions{})
	if err == nil || !strings.Contains(err.Error(), "already hosts it") {
		t.Fatalf("duplicate claim error %v, want the overlap spelled out", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrVertexClaimed) {
		t.Fatalf("Serve err = %v, want ErrVertexClaimed", err)
	}
}

// TestCoordinatorAbortsOnMidRoundDisconnect covers a peer that
// handshakes, participates in the opening exchange, and then drops its
// connection mid-round: the coordinator's deadline-bounded round I/O
// must abort the run with the failing vertex named — the same abort
// path a DefaultIOTimeout expiry takes — rather than hang the
// remaining peers.
func TestCoordinatorAbortsOnMidRoundDisconnect(t *testing.T) {
	g := graph.Path(2) // connected, so the survivor cannot finish alone
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	serveErr := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{IOTimeout: 2 * time.Second})
		serveErr <- err
	}()

	// Vertex 1 handshakes, answers the first beep exchange, then
	// disconnects without sending its join bit.
	quitter, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := NewConn(quitter)
	if err := fc.Send(Frame{Type: TypeHello, Payload: claimPayload([]int{1})}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Expect(TypeWelcome); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = fc.Send(Frame{Type: TypeBeep, Payload: bit(false)})
		if _, err := fc.Expect(TypeHeard); err != nil {
			_ = quitter.Close()
			return
		}
		_ = quitter.Close() // gone before the join exchange
	}()

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nodeErr := make(chan error, 1)
	go func() {
		_, err := RunNode(coord.Addr(), []int{0}, factory, rng.New(1), NodeOptions{IOTimeout: 2 * time.Second})
		nodeErr <- err
	}()

	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("Serve succeeded despite a mid-round disconnect")
		}
		if !strings.Contains(err.Error(), "vertex 1") {
			t.Fatalf("abort error %v does not name the failing vertex", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve hung on a mid-round disconnect")
	}
	// The surviving node must also be released (error or stop), not hang.
	select {
	case <-nodeErr:
	case <-time.After(10 * time.Second):
		t.Fatal("surviving node hung after coordinator abort")
	}
}

func TestConnExpectWrongType(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(Frame{Type: TypeBeep, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expect(TypeJoin); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v", err)
	}
}

func TestCoordinatorToleratesProbeConnections(t *testing.T) {
	g := graph.Empty(1)
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	serveRes := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{})
		serveRes <- err
	}()
	// A connect-and-close probe and a garbage writer must not kill the
	// run.
	probe, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = probe.Close()
	garbage, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = garbage.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	_ = garbage.Close()

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunNode(coord.Addr(), []int{0}, factory, rng.New(1), NodeOptions{}); err != nil {
		t.Fatalf("real node failed after probes: %v", err)
	}
	if err := <-serveRes; err != nil {
		t.Fatalf("Serve failed after probes: %v", err)
	}
}

func TestCoordinatorTimesOutStalledNode(t *testing.T) {
	g := graph.Empty(2)
	coord, err := NewCoordinator(g, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	serveRes := make(chan error, 1)
	go func() {
		_, err := coord.Serve(CoordinatorOptions{IOTimeout: 300 * time.Millisecond})
		serveRes <- err
	}()
	// Vertex 0 participates properly; vertex 1 claims its slot and then
	// stalls forever, so the coordinator's per-operation deadline must
	// fail the round rather than hang the run.
	stalled, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stalled.Close() }()
	fc := NewConn(stalled)
	if err := fc.Send(Frame{Type: TypeHello, Payload: claimPayload([]int{1})}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Expect(TypeWelcome); err != nil {
		t.Fatal(err)
	}

	factory, err := mis.NewFeedback(mis.FeedbackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = RunNode(coord.Addr(), []int{0}, factory, rng.New(1), NodeOptions{IOTimeout: 2 * time.Second})
	}()
	select {
	case err := <-serveRes:
		if err == nil {
			t.Fatal("Serve succeeded despite a stalled vertex")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve hung on a stalled vertex")
	}
}
