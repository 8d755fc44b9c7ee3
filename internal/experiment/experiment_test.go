package experiment

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"beepmis/internal/scenario"
	"beepmis/internal/sim"
)

// quickCfg keeps experiment smoke tests fast: 2 trials, small sweeps.
var quickCfg = Config{Seed: 7, Trials: 2, MaxN: 150}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ablate-factor", "ablate-floor", "ablate-init", "ablate-jitter",
		"ablate-loss", "ablate-noise", "bits", "families", "fig3", "fig5",
		"luby", "thm1", "thm6", "wakeup",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	for _, id := range IDs() {
		title, err := Describe(id)
		if err != nil || title == "" {
			t.Fatalf("Describe(%q) = %q, %v", id, title, err)
		}
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", quickCfg); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllExperimentsSmoke(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, quickCfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Fatalf("result ID %q", res.ID)
			}
			if len(res.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range res.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q empty", s.Name)
				}
				for _, p := range s.Points {
					// wakeup's excess series is completion minus the
					// window W; completion itself must be non-negative.
					mean := p.Mean
					if s.Name == "completion − W" {
						mean += p.X
					}
					if mean < 0 {
						t.Fatalf("series %q has negative mean %v", s.Name, p.Mean)
					}
				}
			}
			table := res.Table()
			if !strings.Contains(table, id) {
				t.Fatalf("table missing id:\n%s", table)
			}
			var csv bytes.Buffer
			if err := res.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(csv.String(), "x,series,mean,std,trials\n") {
				t.Fatalf("csv header wrong:\n%s", csv.String())
			}
			if _, err := res.Plot(); err != nil {
				t.Fatalf("plot: %v", err)
			}
		})
	}
}

func TestFig3ShapeQuick(t *testing.T) {
	// Even a quick run must show the headline result: globalsweep takes
	// more rounds than feedback at the largest common size.
	res, err := Run("fig3", Config{Seed: 3, Trials: 3, MaxN: 300})
	if err != nil {
		t.Fatal(err)
	}
	sweep, ok1 := findSeries(res, "globalsweep")
	fb, ok2 := findSeries(res, "feedback")
	if !ok1 || !ok2 {
		t.Fatal("missing series")
	}
	lastSweep := sweep.Points[len(sweep.Points)-1]
	lastFb := fb.Points[len(fb.Points)-1]
	if lastSweep.Mean <= lastFb.Mean {
		t.Fatalf("globalsweep %.1f rounds <= feedback %.1f rounds — paper's ordering violated",
			lastSweep.Mean, lastFb.Mean)
	}
}

func TestFig5ShapeQuick(t *testing.T) {
	res, err := Run("fig5", Config{Seed: 4, Trials: 5, MaxN: 150})
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := findSeries(res, "feedback")
	if !ok {
		t.Fatal("missing feedback series")
	}
	for _, p := range fb.Points {
		if p.Mean > 2.0 {
			t.Fatalf("feedback beeps/node %.2f at n=%v — paper says ≈1.1", p.Mean, p.X)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run("fig5", Config{Seed: 11, Trials: 2, MaxN: 75})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig5", Config{Seed: 11, Trials: 2, MaxN: 75})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table() != b.Table() {
		t.Fatal("same seed produced different experiment results")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{}
	if c.trials(7) != 7 {
		t.Fatal("default trials")
	}
	c.Trials = 3
	if c.trials(7) != 3 {
		t.Fatal("override trials")
	}
	c.MaxN = 50
	got := c.sizes([]int{10, 50, 100})
	if len(got) != 2 || got[1] != 50 {
		t.Fatalf("sizes = %v", got)
	}
	// MaxN below every size keeps the smallest so sweeps stay non-empty.
	c.MaxN = 5
	got = c.sizes([]int{10, 50})
	if len(got) != 1 || got[0] != 10 {
		t.Fatalf("sizes = %v", got)
	}
}

func TestTableFormatting(t *testing.T) {
	r := &Result{
		ID: "x", Title: "t", XLabel: "n", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Mean: 2.5, Std: 0.5, Trials: 3}}},
			{Name: "ref", Reference: true, Points: []Point{{X: 1, Mean: 9}}},
		},
		Notes: []string{"hello"},
	}
	table := r.Table()
	for _, want := range []string{"2.50 ± 0.50", "9.00", "note: hello", "n", "a", "ref"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCSVEscapesCommas(t *testing.T) {
	r := &Result{
		ID: "x",
		Series: []Series{
			{Name: "a,b", Points: []Point{{X: 1, Mean: 2}}},
		},
	}
	var buf bytes.Buffer
	if err := r.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[1], "a,b") {
		t.Fatalf("comma in series name not escaped: %s", buf.String())
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(5) != "5" {
		t.Fatal(trimFloat(5))
	}
	if trimFloat(0.25) != "0.25" {
		t.Fatal(trimFloat(0.25))
	}
}

// TestWorkerCountInvariance is the parallel runner's core contract:
// the same experiment with the same seed must produce bit-identical
// results for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	base := Config{Seed: 3, Trials: 4, MaxN: 150}
	for _, id := range []string{"fig3", "thm1", "wakeup", "luby", "bits"} {
		var first *Result
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			res, err := Run(id, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(first, res) {
				t.Fatalf("%s: results differ between 1 and %d workers", id, workers)
			}
		}
	}
}

// TestEngineInvariance pins experiment outputs across simulation
// engines and trial pools: every registered experiment must print the
// same JSON bytes under every engine spelling — the legacy scalar and
// bitset pins included — at one and at three trial workers.
func TestEngineInvariance(t *testing.T) {
	for _, id := range IDs() {
		var want []byte
		for _, engine := range []sim.Engine{sim.EngineAuto, sim.EngineColumnar, sim.EngineSparse, sim.EngineScalar, sim.EngineBitset} {
			for _, workers := range []int{1, 3} {
				res, err := Run(id, Config{Seed: 5, Trials: 3, MaxN: 120, Engine: engine, Workers: workers})
				if err != nil {
					t.Fatalf("%s engine=%v workers=%d: %v", id, engine, workers, err)
				}
				var b bytes.Buffer
				if err := res.WriteJSON(&b); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = b.Bytes()
				} else if !bytes.Equal(b.Bytes(), want) {
					t.Fatalf("%s: engine=%v workers=%d output differs from engine=auto workers=1", id, engine, workers)
				}
			}
		}
	}
}

// TestCappedTrialFailsExperiment forces every trial past a tiny round
// cap: the experiment must fail with the scenario runner's error, which
// wraps sim.ErrTooManyRounds and names the unit and trial — for fig5,
// whose beeps series once dropped censored trials silently, and for
// ablate-loss, which once recorded capped trials as data.
func TestCappedTrialFailsExperiment(t *testing.T) {
	for _, id := range []string{"fig5", "ablate-loss"} {
		_, err := Run(id, Config{Seed: 1, Trials: 2, MaxN: 100, roundCap: 2})
		if !errors.Is(err, sim.ErrTooManyRounds) {
			t.Fatalf("%s: err %v, want one wrapping sim.ErrTooManyRounds", id, err)
		}
		if !strings.Contains(err.Error(), "trial 0") {
			t.Errorf("%s: error %q does not name the trial", id, err)
		}
	}
}

// TestNodeAxesAreNodeCounts pins the clique-family fix: thm1 plots the
// node counts of the graphs it runs, k²(k+1)/2 for k = 4..16 (it once
// labelled each point with the n it passed to graph.CliqueFamily, whose
// graph had far fewer nodes). On every experiment whose x axis is n,
// each non-reference point sits at the node count of a unit the
// experiment ran.
func TestNodeAxesAreNodeCounts(t *testing.T) {
	res, err := Run("thm1", Config{Seed: 1, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{40, 126, 288, 550, 936, 1470, 2176}
	for _, s := range res.Series {
		if got := s.xs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("thm1 %s: X = %v, want %v", s.Name, got, want)
		}
	}
	for _, id := range IDs() {
		nodes := map[float64]bool{}
		cfg := quickCfg
		cfg.onReport = func(rep *scenario.Report) {
			for _, u := range rep.Units {
				nodes[float64(u.Nodes)] = true
			}
		}
		res, err := Run(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.XLabel != "n" {
			continue
		}
		for _, s := range res.Series {
			for _, p := range s.Points {
				if !s.Reference && !nodes[p.X] {
					t.Errorf("%s %s: point at n=%v, but no unit has %v nodes", id, s.Name, p.X, p.X)
				}
			}
		}
	}
}

// TestPerChannelSkipsEdgelessTrials: bits per channel average only the
// trials whose graph had an edge, in trial order, but the point still
// reports every trial run.
func TestPerChannelSkipsEdgelessTrials(t *testing.T) {
	p := perChannel(7, []float64{1, 2, 3, 5}, []bool{true, false, true, false}, 4)
	if p.X != 7 || p.Mean != 2 || p.Trials != 4 {
		t.Fatalf("perChannel = %+v, want x 7, mean 2 over the kept trials, 4 trials", p)
	}
}

// TestSeedZeroMeansOne: as in a scenario spec, seed 0 is seed 1 — for
// the spec-run series and the message-passing baselines alike.
func TestSeedZeroMeansOne(t *testing.T) {
	for _, id := range []string{"luby", "bits"} {
		a, err := Run(id, Config{Seed: 0, Trials: 2, MaxN: 100})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, Config{Seed: 1, Trials: 2, MaxN: 100})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 0 and seed 1 differ", id)
		}
	}
}
