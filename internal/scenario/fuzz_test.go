package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"beepmis/internal/fault"
	"beepmis/internal/mis"
)

// FuzzParse asserts the scenario parser's total-validation contract:
// arbitrary bytes either parse into a spec whose Compile also succeeds,
// or return an error — never a panic, and never a spec that validates
// but cannot compile. (Service submissions feed attacker-controlled
// bytes straight into this path.)
func FuzzParse(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"graph":{"family":"gnp","n":50,"p":0.5},"algorithm":"feedback"}`),
		[]byte(`{"graph":{"family":"grid","rows":4,"cols":4},"algorithm":"globalsweep","trials":2}`),
		[]byte(`{"graph":{"family":"hypercube","d":4},"algorithm":"afek","seed":3}`),
		[]byte(`{"graph":{"family":"unitdisk","n":100,"radius":0.2},"algorithm":"feedback","wake_window":8}`),
		[]byte(`{"graph":{"family":"gnp","p":0.5},"algorithm":"feedback","sweep":{"n":[10,20],"algorithm":["feedback","afek"]}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","crash_at_round":{"2":[1,2]}}`),
		[]byte(`{"graph":{"family":"gnp","n":-5,"p":2},"algorithm":"feedback"}`),
		[]byte(`{"graph":{"family":"gnp","n":1e9,"p":0.5},"algorithm":"feedback"}`),
		[]byte(`{"graph":{"family":"banana","n":10},"algorithm":"feedback"}`),
		[]byte(`{"graph":{"family":"gnp","n":10,"p":0.5},"algorithm":"nope","shards":-3}`),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`[]`),
		[]byte(`{"graph":null,"algorithm":null}`),
		[]byte(`{"graph":{"family":"randomregular","n":10,"d":3},"algorithm":"fixed","fixed_p":-1}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","faults":{"loss":0.05,"spurious":0.01}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","faults":{"wake":{"kind":"uniform","window":8}}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","faults":{"outages":[{"node":3,"from":2,"for":4,"reset":true}]}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","faults":{"loss":-1}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","wake_window":3,"faults":{"wake":{"kind":"degree","window":2}}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","feedback":{"factor":1.5,"factor_max":3,"initial_p_by_id":[0.5,0.25]}}`),
		[]byte(`{"graph":{"family":"gnp","n":20,"p":0.5},"algorithm":"feedback","feedback":{"factor":3,"factor_max":2,"initial_p_by_id":[]}}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parse validates via Compile, so a parsed spec must compile,
		// hash, and canonicalise — and do all three deterministically.
		c1, err := spec.Compile()
		if err != nil {
			t.Fatalf("Parse accepted a spec Compile rejects: %v\n%s", err, data)
		}
		c2, err := spec.Compile()
		if err != nil {
			t.Fatalf("second Compile failed: %v", err)
		}
		if c1.Hash != c2.Hash || !bytes.Equal(c1.Canonical, c2.Canonical) {
			t.Fatalf("Compile is not deterministic for %s", data)
		}
		if len(c1.Units) == 0 || len(c1.Units) > MaxUnits {
			t.Fatalf("compiled to %d units", len(c1.Units))
		}
	})
}

// contractBytes hands out fuzz bytes one at a time, and zeros once they
// run out, so every input maps to some spec.
type contractBytes []byte

func (b *contractBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// intn returns a value in [0, n).
func (b *contractBytes) intn(n int) int { return b.next() % n }

// frac returns a value in [0, 1].
func (b *contractBytes) frac() float64 { return float64(b.next()) / 255 }

// contractSpec maps fuzz bytes onto a small spec: any family with at
// most 200 nodes (the file family reads testdata/tiny.el), at most 4
// trials, any algorithm, and optional faults, crash, wake, beep-loss,
// feedback and sweep blocks. The spec may still be one Compile rejects.
func contractSpec(data []byte) *Spec {
	b := contractBytes(data)
	names := Families()
	g := GraphSpec{Family: names[b.intn(len(names))]}
	n := 1 + b.intn(200)
	switch g.Family {
	case "gnp":
		g.N, g.P = n, b.frac()
	case "grid", "torus":
		g.Rows, g.Cols = 1+b.intn(14), 1+b.intn(14)
	case "unitdisk":
		g.N, g.Radius = n, math.Sqrt2*float64(1+b.next())/256
	case "barabasialbert":
		g.N, g.M = n, 1+b.intn(8)
	case "wattsstrogatz":
		g.N, g.K, g.Beta = n, 2+2*b.intn(4), b.frac()
	case "hypercube":
		g.D = 1 + b.intn(7)
	case "randomregular":
		g.N, g.D = n, 1+b.intn(8)
	case "rmat":
		g.N, g.Edges = 2<<b.intn(7), int64(1+4*b.next())
		if b.next()&1 == 1 {
			g.A, g.B, g.C = 0.25+0.5*b.frac(), 0.1, 0.1
		}
	case "configmodel":
		g.N, g.Edges, g.Gamma = n, int64(1+4*b.next()), 2+float64(1+b.next())/128
	case "file":
		g.Path = "testdata/tiny.el"
	default:
		g.N = n
	}
	info := families[g.Family]
	if info.random && b.next()&1 == 1 {
		g.Seed = uint64(1 + b.next())
	}
	algos := mis.Names()
	s := &Spec{
		Graph:     g,
		Algorithm: algos[b.intn(len(algos))],
		Trials:    1 + b.intn(4),
		Seed:      uint64(b.next()) | uint64(b.next())<<8,
		MaxRounds: 400,
	}
	if s.Algorithm == mis.NameFixed {
		s.FixedP = float64(1+b.intn(50)) / 100
	}
	flags := b.next()
	if flags&1 != 0 {
		fs := &fault.Spec{Loss: 0.2 * b.frac(), Spurious: 0.1 * b.frac()}
		switch b.intn(4) {
		case 1:
			fs.Wake = &fault.Wake{Kind: fault.WakeUniform, Window: 1 + b.intn(10)}
		case 2:
			fs.Wake = &fault.Wake{Kind: fault.WakeDegree, Window: 1 + b.intn(10)}
		case 3:
			fs.Wake = &fault.Wake{Kind: fault.WakeExplicit, At: map[int][]int{2 + b.intn(6): {b.intn(4)}}}
		}
		if b.next()&1 == 1 {
			fs.Outages = []fault.Outage{{Node: b.intn(4), From: 1 + b.intn(6), For: 1 + b.intn(5), Reset: b.next()&1 == 1}}
		}
		s.Faults = fs
	}
	if flags&2 != 0 {
		s.CrashAtRound = map[int][]int{1 + b.intn(5): {4 + b.intn(4)}}
	}
	if flags&4 != 0 {
		s.WakeWindow = 1 + b.intn(12)
	}
	if flags&8 != 0 {
		s.BeepLoss = 0.3 * b.frac()
	}
	if flags&32 != 0 {
		// The per-node feedback fields: a factor range that may be empty
		// or one point, and a list that may be empty or exceed max_p.
		fb := &FeedbackSpec{Factor: 1.25 + b.frac(), MaxP: 0.25 + b.frac()/2}
		fb.FactorMax = fb.Factor + b.frac() - 0.125
		fb.InitialPByID = make([]float64, b.intn(6))
		for i := range fb.InitialPByID {
			fb.InitialPByID[i] = b.frac()
		}
		s.Feedback = fb
	}
	if flags&16 != 0 {
		sw := &SweepSpec{Algorithms: []string{s.Algorithm, algos[b.intn(len(algos))]}}
		switch {
		case info.usesP:
			sw.P = []float64{g.P, b.frac()}
		case info.usesN:
			sw.N = []int{g.N, 1 + b.intn(200)}
		}
		s.Sweep = sw
	}
	return s
}

// specContractSeeds holds one input per family, in Families() order,
// then one for the feedback block's per-node fields. The optional
// blocks are spread across them: faults (with each wake kind and with
// outages), crashes, wake windows, beep loss, sweeps over n, p and the
// algorithm, and the feedback factor range and initial_p_by_id list.
func specContractSeeds() [][]byte {
	return [][]byte{
		{0, 119, 1, 0, 1, 2, 5, 0, 9, 20, 10, 1, 5, 0, 40},                 // barabasialbert, faults (uniform wake), beep loss
		{1, 124, 0, 1, 7, 0, 2, 1, 2},                                      // cliques, crash
		{2, 39, 3, 1, 3, 0, 16, 1, 59},                                     // complete, sweep over n and algorithm
		{3, 62, 3, 2, 9, 0, 4, 5},                                          // completebinarytree, wake window
		{4, 149, 150, 63, 1, 4, 1, 1, 11, 0, 1, 0, 0, 2, 5, 1, 3, 1, 2, 1}, // configmodel, faults (degree wake, reset outage)
		{5, 100, 1, 3, 13, 0, 8, 60},                                       // cycle, beep loss
		{6, 0, 0, 2, 15, 0, 3, 30, 0, 3, 1, 2, 0, 2, 1},                    // file, faults (explicit wake), crash
		{7, 149, 13, 0, 1, 2, 17, 0, 16, 0, 128},                           // gnp, sweep over p and algorithm
		{8, 0, 9, 11, 3, 1, 19, 0, 6, 0, 3, 7},                             // grid, crash, wake window
		{9, 0, 6, 1, 1, 21, 0, 9, 50, 25, 0, 1, 1, 0, 3, 0, 30},            // hypercube, faults (outage), beep loss
		{10, 119, 2, 2, 23, 0, 29, 0},                                      // path, fixed probability
		{11, 99, 3, 1, 8, 3, 1, 25, 0, 20, 2, 1, 79},                       // randomregular, wake window, sweep over n
		{12, 0, 6, 100, 1, 128, 0, 1, 2, 27, 0, 3, 0, 20, 1, 3, 0, 3, 0},   // rmat, faults (uniform wake), crash
		{13, 79, 0, 3, 29, 0, 8, 100},                                      // star, beep loss
		{14, 0, 7, 8, 1, 2, 31, 0, 5, 10, 0, 0, 0, 9},                      // torus, faults, wake window
		{15, 149, 1, 10, 3, 1, 33, 0, 2, 4, 2},                             // tree, crash
		{16, 149, 30, 0, 1, 1, 35, 0, 24, 50, 3, 99},                       // unitdisk, beep loss, sweep over n
		{17, 99, 1, 51, 0, 0, 2, 37, 0, 1, 0, 0, 2, 7, 1, 0, 2, 1, 0},      // wattsstrogatz, faults (degree wake, outage)
		{7, 99, 60, 0, 1, 3, 31, 0, 32, 64, 255, 255, 3, 128, 64, 32},      // gnp, feedback factor range and per-node initials
	}
}

// TestSpecContractSeedsCover checks that FuzzSpecContract's seed corpus
// compiles to one spec per family, so the contract is exercised on every
// family by a plain go test run.
func TestSpecContractSeedsCover(t *testing.T) {
	seeds := specContractSeeds()
	for i, family := range Families() {
		s := contractSpec(seeds[i])
		if s.Graph.Family != family {
			t.Fatalf("seed %d maps to family %q, want %q", i, s.Graph.Family, family)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("seed %d (%s): %v", i, family, err)
		}
	}
	last := contractSpec(seeds[len(seeds)-1])
	c, err := last.Compile()
	if err != nil {
		t.Fatalf("feedback seed: %v", err)
	}
	if fb := c.Spec.Feedback; fb == nil || fb.FactorMax <= fb.Factor || len(fb.InitialPByID) == 0 {
		t.Fatalf("feedback seed compiles to feedback block %+v, want a factor range and per-node initials", fb)
	}
}

// FuzzSpecContract fuzzes the content-hash contract misd's result cache
// rests on: engine, shards and workers are stripped from the hash, so
// they must never change a report byte. Each input becomes a small spec
// (see contractSpec); inputs that map to a spec Compile rejects are
// skipped. The spec runs under every engine spelling × workers {1, 3} ×
// shards {1, 2}; every configuration must compile to one hash and either
// fail (a round cap hit by any trial) or produce byte-identical report
// JSON.
func FuzzSpecContract(f *testing.F) {
	for _, seed := range specContractSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base := contractSpec(data)
		if _, err := base.Compile(); err != nil {
			t.Skip()
		}
		var wantHash, wantName string
		var want []byte
		var wantErr error
		for _, engine := range []string{"auto", "columnar", "sparse", "scalar", "bitset"} {
			for _, workers := range []int{1, 3} {
				for _, shards := range []int{1, 2} {
					s := *base
					s.Engine, s.Workers, s.Shards = engine, workers, shards
					name := fmt.Sprintf("engine=%s workers=%d shards=%d", engine, workers, shards)
					c, err := s.Compile()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rep, err := Run(context.Background(), c, RunOptions{})
					var b []byte
					if err == nil {
						b, err = rep.JSON()
					}
					if wantName == "" {
						wantHash, wantName, want, wantErr = c.Hash, name, b, err
						continue
					}
					if c.Hash != wantHash {
						t.Fatalf("%s hashes to %s, %s to %s", name, c.Hash, wantName, wantHash)
					}
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s: err %v, but %s: err %v", name, err, wantName, wantErr)
					}
					if !bytes.Equal(b, want) {
						t.Fatalf("%s: report differs from %s", name, wantName)
					}
				}
			}
		}
	})
}
