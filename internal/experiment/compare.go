package experiment

import (
	"fmt"
	"math"
)

// Compare diffs two results of the same experiment (e.g. a saved
// baseline JSON and a fresh run) and returns human-readable findings for
// every point whose means differ by more than tolerance, expressed as a
// fraction of the baseline mean (tolerance 0.2 = 20%). Missing series or
// points are reported too. An empty return means the runs agree within
// tolerance — the CI contract for "the reproduction still reproduces".
func Compare(baseline, current *Result, tolerance float64) []string {
	if tolerance <= 0 {
		tolerance = 0.2
	}
	return comparePoints(baseline, current, func(bp, cp Point) string {
		denom := math.Abs(bp.Mean)
		if denom < 1e-12 {
			if math.Abs(cp.Mean) > tolerance {
				return fmt.Sprintf("baseline mean 0, current %v", cp.Mean)
			}
			return ""
		}
		if rel := math.Abs(cp.Mean-bp.Mean) / denom; rel > tolerance {
			return fmt.Sprintf("mean %.3f vs baseline %.3f (%.0f%% drift > %.0f%% tolerance)", cp.Mean, bp.Mean, 100*rel, 100*tolerance)
		}
		return ""
	})
}

// CompareZ is Compare's statistical mode, for two runs that sample the
// same distributions from different draws (another seed, or a sampler
// that draws differently). A point fails when its means differ by more
// than z standard errors of the difference,
// |Δmean| / √(s₁²/t₁ + s₂²/t₂) > z, from each side's Std and Trials. A
// point with zero std on both sides has no spread to scale by, so its
// means must match exactly.
func CompareZ(baseline, current *Result, z float64) []string {
	return comparePoints(baseline, current, func(bp, cp Point) string {
		se := math.Sqrt(bp.Std*bp.Std/float64(max(bp.Trials, 1)) + cp.Std*cp.Std/float64(max(cp.Trials, 1)))
		diff := math.Abs(cp.Mean - bp.Mean)
		switch {
		case se == 0 && diff != 0:
			return fmt.Sprintf("mean %v vs baseline %v with zero std on both sides", cp.Mean, bp.Mean)
		case se > 0 && diff/se > z:
			return fmt.Sprintf("mean %.3f vs baseline %.3f (z = %.2f > %g)", cp.Mean, bp.Mean, diff/se, z)
		}
		return ""
	})
}

// comparePoints matches current's series by name and their points by x
// against baseline's, and returns a finding for every series or point
// missing from current and for every point judge faults (a non-empty
// return).
func comparePoints(baseline, current *Result, judge func(bp, cp Point) string) []string {
	if baseline.ID != current.ID {
		return []string{fmt.Sprintf("experiment id differs: %q vs %q", baseline.ID, current.ID)}
	}
	var findings []string
	curSeries := make(map[string]Series, len(current.Series))
	for _, s := range current.Series {
		curSeries[s.Name] = s
	}
	for _, bs := range baseline.Series {
		cs, ok := curSeries[bs.Name]
		if !ok {
			findings = append(findings, fmt.Sprintf("series %q missing from current run", bs.Name))
			continue
		}
		curPoints := make(map[float64]Point, len(cs.Points))
		for _, p := range cs.Points {
			curPoints[p.X] = p
		}
		for _, bp := range bs.Points {
			cp, ok := curPoints[bp.X]
			if !ok {
				findings = append(findings, fmt.Sprintf("series %q: point x=%v missing from current run", bs.Name, bp.X))
				continue
			}
			if f := judge(bp, cp); f != "" {
				findings = append(findings, fmt.Sprintf("series %q x=%v: %s", bs.Name, bp.X, f))
			}
		}
	}
	return findings
}
