package experiment

import (
	"fmt"
	"math"

	"beepmis/internal/mis"
	"beepmis/internal/scenario"
)

// Check is one headline-claim verification.
type Check struct {
	// Name identifies the claim.
	Name string
	// Pass reports whether the measured behaviour matched it.
	Pass bool
	// Detail explains the measurement.
	Detail string
}

// Verdict runs a scaled-down measurement of every headline claim of the
// paper and reports pass/fail per claim — the one-command answer to
// "does the reproduction still reproduce?". It runs four single-unit
// specs at the experiment seed: feedback and the global sweep on
// G(n,1/2), and both again on the union-of-cliques family. Specs at one
// seed share graph streams, so each pair runs on the same instances.
// With the zero Config it runs 20 trials per spec at n = 400, well
// under a second of work; Trials/MaxN shrink it further.
func Verdict(cfg Config) ([]Check, error) {
	n := cfg.size(400)
	// k = 9: the 405-node union of k copies of K_1..K_k.
	cliques := scenario.GraphSpec{Family: "cliques", N: 9 * 9 * 9}
	var units [4]scenario.UnitReport
	for i, s := range []scenario.Spec{
		{Graph: scenario.GraphSpec{Family: "gnp", N: n, P: 0.5}, Algorithm: mis.NameFeedback},
		{Graph: scenario.GraphSpec{Family: "gnp", N: n, P: 0.5}, Algorithm: mis.NameGlobalSweep},
		{Graph: cliques, Algorithm: mis.NameFeedback},
		{Graph: cliques, Algorithm: mis.NameGlobalSweep},
	} {
		rep, err := cfg.run(cfg.spec(s, 20), nil)
		if err != nil {
			return nil, fmt.Errorf("verdict %s on %s: %w", s.Algorithm, s.Graph.Family, err)
		}
		units[i] = rep.Units[0]
	}
	fb, sw, cfFb, cfSw := units[0], units[1], units[2], units[3]
	logN := math.Log2(float64(n))
	fbRounds, swRounds := fb.Rounds.Mean, sw.Rounds.Mean

	checks := []Check{
		{
			Name:   "correctness: every feedback run yields a verified MIS",
			Pass:   fb.Verified,
			Detail: fmt.Sprintf("%s over %d runs on G(%d,1/2)", verifiedWord(fb.Verified), fb.Trials, n),
		},
		{
			Name:   "Corollary 5: feedback rounds ≈ 2.5·log2 n (within [1.5, 4]·log2 n)",
			Pass:   fbRounds >= 1.5*logN && fbRounds <= 4*logN,
			Detail: fmt.Sprintf("mean %.1f rounds vs log2(%d)=%.1f (ratio %.2f)", fbRounds, n, logN, fbRounds/logN),
		},
		{
			Name:   "Theorem 6: feedback beeps/node ≈ 1.1 (below 2)",
			Pass:   fb.Beeps.Mean < 2,
			Detail: fmt.Sprintf("mean %.2f beeps/node on G(%d,1/2)", fb.Beeps.Mean, n),
		},
		{
			Name:   "§1 ordering: global sweep ≥ 2× feedback rounds on G(n,1/2)",
			Pass:   swRounds >= 2*fbRounds,
			Detail: fmt.Sprintf("sweep %.1f vs feedback %.1f rounds", swRounds, fbRounds),
		},
		{
			Name:   "Theorem 1: preset schedule slower than feedback on the clique family",
			Pass:   cfSw.Rounds.Mean > cfFb.Rounds.Mean*1.3,
			Detail: fmt.Sprintf("sweep %.1f vs feedback %.1f rounds on the %d-node union of cliques", cfSw.Rounds.Mean, cfFb.Rounds.Mean, cfFb.Nodes),
		},
	}
	return checks, nil
}
