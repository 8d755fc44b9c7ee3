package experiment

import (
	"strings"
	"testing"
)

func mkResult(id string, mean float64) *Result {
	return &Result{
		ID: id,
		Series: []Series{
			{Name: "s", Points: []Point{{X: 100, Mean: mean, Trials: 10}}},
		},
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	findings := Compare(mkResult("fig3", 20), mkResult("fig3", 22), 0.2)
	if len(findings) != 0 {
		t.Fatalf("10%% drift flagged at 20%% tolerance: %v", findings)
	}
}

func TestCompareFlagsDrift(t *testing.T) {
	findings := Compare(mkResult("fig3", 20), mkResult("fig3", 30), 0.2)
	if len(findings) != 1 || !strings.Contains(findings[0], "drift") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestCompareIDMismatch(t *testing.T) {
	findings := Compare(mkResult("fig3", 20), mkResult("fig5", 20), 0.2)
	if len(findings) != 1 || !strings.Contains(findings[0], "id differs") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestCompareMissingSeriesAndPoints(t *testing.T) {
	base := &Result{ID: "x", Series: []Series{
		{Name: "a", Points: []Point{{X: 1, Mean: 5}, {X: 2, Mean: 6}}},
		{Name: "b", Points: []Point{{X: 1, Mean: 7}}},
	}}
	cur := &Result{ID: "x", Series: []Series{
		{Name: "a", Points: []Point{{X: 1, Mean: 5}}},
	}}
	findings := Compare(base, cur, 0.2)
	if len(findings) != 2 {
		t.Fatalf("findings = %v", findings)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := mkResult("x", 0)
	if f := Compare(base, mkResult("x", 0.1), 0.2); len(f) != 0 {
		t.Fatalf("small absolute drift from zero flagged: %v", f)
	}
	if f := Compare(base, mkResult("x", 5), 0.2); len(f) != 1 {
		t.Fatalf("large drift from zero not flagged: %v", f)
	}
}

func TestCompareDefaultTolerance(t *testing.T) {
	// tolerance <= 0 falls back to 20%.
	if f := Compare(mkResult("x", 10), mkResult("x", 11), 0); len(f) != 0 {
		t.Fatalf("10%% drift flagged under default tolerance: %v", f)
	}
}

func TestCompareAgainstSelfRun(t *testing.T) {
	// A real experiment compared against itself must agree exactly.
	res, err := Run("fig5", Config{Seed: 5, Trials: 2, MaxN: 50})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run("fig5", Config{Seed: 5, Trials: 2, MaxN: 50})
	if err != nil {
		t.Fatal(err)
	}
	if f := Compare(res, res2, 0.01); len(f) != 0 {
		t.Fatalf("identical runs differ: %v", f)
	}
}

// TestCompareZ covers the statistical mode point by point: the standard
// error of a difference of means scales the shift, zero spread on both
// sides demands equality, and missing series and points are findings.
func TestCompareZ(t *testing.T) {
	pt := func(mean, std float64, trials int) []Series {
		return []Series{{Name: "s", Points: []Point{{X: 100, Mean: mean, Std: std, Trials: trials}}}}
	}
	base := &Result{ID: "x", Series: pt(20, 4, 16)} // standard error 1 per side
	cases := []struct {
		name string
		base *Result
		cur  []Series
		want string // substring of the one finding, "" for none
	}{
		{"equal points", base, pt(20, 4, 16), ""},
		// se = √(1 + 1): a shift of 5 is z = 3.54, one of 6 is z = 4.24.
		{"shift within z", base, pt(25, 4, 16), ""},
		{"shifted mean", base, pt(26, 4, 16), "z = 4.24 > 4"},
		{"spread on one side only", base, pt(23.9, 0, 16), ""},
		{"zero std, equal", &Result{ID: "x", Series: pt(7, 0, 5)}, pt(7, 0, 5), ""},
		{"zero std, different", &Result{ID: "x", Series: pt(7, 0, 5)}, pt(7.001, 0, 5), "zero std on both sides"},
		{"missing point", base, []Series{{Name: "s", Points: []Point{{X: 200, Mean: 20, Std: 4, Trials: 16}}}}, "point x=100 missing"},
		{"missing series", base, []Series{{Name: "t", Points: []Point{{X: 100, Mean: 20, Std: 4, Trials: 16}}}}, `series "s" missing`},
		{"other experiment", &Result{ID: "y", Series: pt(20, 4, 16)}, pt(20, 4, 16), "id differs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := CompareZ(c.base, &Result{ID: "x", Series: c.cur}, 4)
			switch {
			case c.want == "" && len(f) != 0:
				t.Fatalf("findings %v, want none", f)
			case c.want != "" && (len(f) != 1 || !strings.Contains(f[0], c.want)):
				t.Fatalf("findings %v, want one containing %q", f, c.want)
			}
		})
	}
}
