package graph

import (
	"math"
	"runtime"
	"testing"

	"beepmis/internal/rng"
)

// TestGeneratorsDeterministicAcrossWorkers is the generator half of the
// pipeline's determinism contract: for each streamed generator,
// every worker count must produce the bit-identical graph, and the
// graph must pass full structural validation.
func TestGeneratorsDeterministicAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	gens := map[string]func(workers int) (*Graph, error){
		"rmat": func(w int) (*Graph, error) {
			return RMAT(256, 4000, 0.57, 0.19, 0.19, 0.05, rng.New(11), w)
		},
		"rmat-uniform": func(w int) (*Graph, error) {
			return RMAT(128, 2000, 0.25, 0.25, 0.25, 0.25, rng.New(12), w)
		},
		"configmodel": func(w int) (*Graph, error) {
			return ConfigModel(300, 3000, 2.5, rng.New(13), w)
		},
		"configmodel-steep": func(w int) (*Graph, error) {
			return ConfigModel(200, 1000, 3.5, rng.New(14), w)
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			want, err := gen(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Validate(); err != nil {
				t.Fatal(err)
			}
			if want.M() == 0 {
				t.Fatal("generator produced an empty graph; the test is vacuous")
			}
			for _, w := range workerCounts[1:] {
				got, err := gen(w)
				if err != nil {
					t.Fatal(err)
				}
				if !csrEqual(got, want) {
					t.Fatalf("workers=%d produced a different graph than workers=1", w)
				}
			}
		})
	}
}

// TestRMATEdgeBudget: the sampled edge count is an upper bound (loops
// dropped, duplicates collapsed) but a skew this mild should keep most
// of it.
func TestRMATEdgeBudget(t *testing.T) {
	c, err := RMAT(1024, 8192, 0.57, 0.19, 0.19, 0.05, rng.New(21), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := c.M(); m > 8192 || m < 8192/2 {
		t.Fatalf("RMAT produced %d edges from an 8192-edge budget", m)
	}
}

// TestConfigModelDegreeSkew: the Chung–Lu weights must actually skew —
// the heaviest vertex (index 0) should out-degree the lightest by a
// wide margin.
func TestConfigModelDegreeSkew(t *testing.T) {
	c, err := ConfigModel(1000, 20000, 2.2, rng.New(22), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Degree(0) < 4*c.Degree(999) {
		t.Fatalf("degree(0)=%d not clearly above degree(999)=%d: power-law weighting missing?",
			c.Degree(0), c.Degree(999))
	}
}

// TestGeneratorParamValidation: every generator rejects out-of-domain
// parameters with an error, never a panic.
func TestGeneratorParamValidation(t *testing.T) {
	src := rng.New(1)
	cases := map[string]func() error{
		"rmat-not-pow2":    func() error { _, err := RMAT(100, 10, 0.57, 0.19, 0.19, 0.05, src, 0); return err },
		"rmat-n1":          func() error { _, err := RMAT(1, 10, 0.57, 0.19, 0.19, 0.05, src, 0); return err },
		"rmat-neg-edges":   func() error { _, err := RMAT(64, -1, 0.57, 0.19, 0.19, 0.05, src, 0); return err },
		"rmat-bad-sum":     func() error { _, err := RMAT(64, 10, 0.5, 0.5, 0.5, 0.5, src, 0); return err },
		"rmat-neg-prob":    func() error { _, err := RMAT(64, 10, -0.1, 0.5, 0.3, 0.3, src, 0); return err },
		"rmat-nan":         func() error { _, err := RMAT(64, 10, math.NaN(), 0.5, 0.3, 0.2, src, 0); return err },
		"config-gamma2":    func() error { _, err := ConfigModel(10, 10, 2, src, 0); return err },
		"config-nan":       func() error { _, err := ConfigModel(10, 10, math.NaN(), src, 0); return err },
		"config-neg-edges": func() error { _, err := ConfigModel(10, -1, 2.5, src, 0); return err },
		"config-n0":        func() error { _, err := ConfigModel(0, 10, 2.5, src, 0); return err },
	}
	for name, call := range cases {
		if err := call(); err == nil {
			t.Errorf("%s: invalid parameters did not error", name)
		}
	}
}
