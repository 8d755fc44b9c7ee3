package fault

import (
	"fmt"

	"beepmis/internal/graph"
)

// maxRecordedViolations bounds the violation witnesses a Verifier
// retains; further violations are counted but not stored, so a
// catastrophically noisy run cannot balloon memory. The count is what
// robustness experiments aggregate; the witnesses exist for error
// messages and debugging.
const maxRecordedViolations = 64

// Violation is one independence breach: Node joined the MIS while
// Neighbor was already (or simultaneously became) a member.
type Violation struct {
	Round    int `json:"round"`
	Node     int `json:"node"`
	Neighbor int `json:"neighbor"`
}

// String renders the violation for error messages.
func (v Violation) String() string {
	return fmt.Sprintf("round %d: edge {%d,%d} inside the set", v.Round, v.Node, v.Neighbor)
}

// Verifier is an incremental per-round MIS safety checker for noisy
// runs. Terminal verification (graph.VerifyMIS) trusts the final state;
// under faults that is not enough — a reset outage can remove a member
// after its neighbours were dominated, and channel loss can admit two
// adjacent joiners whose breach a later crash could mask. The Verifier
// instead consumes the engine's per-round MIS deltas (sim's OnMISDelta
// hook matches ObserveRound's signature), maintains its own membership
// bitset, and checks independence as members arrive: each joiner walks
// only its own adjacency row (the Graph's sorted compressed rows; no
// extra representation is built), so a round costs
// O(Σ deg(frontier)) — nothing when the set is quiet — rather than
// O(n + m). Maximality is checked once, at termination, via Uncovered.
//
// It also reports when the set last changed (LastChangeRound): under
// faults "rounds until the MIS stabilised" is the honest convergence
// metric, since a terminal-state check cannot see a set that was
// briefly correct, then perturbed, then repaired.
type Verifier struct {
	g     *graph.Graph
	inMIS graph.Bitset
	// joinedNow marks this round's joiners while their rows are walked,
	// so a same-round adjacent pair is recorded once, not twice.
	joinedNow  graph.Bitset
	violations []Violation
	count      int
	lastChange int
	rounds     int
}

// NewVerifier returns a Verifier for g. Construction is O(n/64) words;
// the graph's existing adjacency lists are read in place.
func NewVerifier(g *graph.Graph) *Verifier {
	return &Verifier{
		g:         g,
		inMIS:     graph.NewBitset(g.N()),
		joinedNow: graph.NewBitset(g.N()),
	}
}

// ObserveRound ingests one round's membership deltas: joined lists the
// nodes that entered the MIS this round, left the nodes a reset outage
// removed. The signature matches sim.Options.OnMISDelta, so a Verifier
// plugs straight into any engine. The slices are not retained.
func (vf *Verifier) ObserveRound(round int, joined, left []int) {
	if round > vf.rounds {
		vf.rounds = round
	}
	if len(joined) == 0 && len(left) == 0 {
		return
	}
	vf.lastChange = round
	for _, v := range left {
		vf.inMIS.Clear(v)
	}
	for _, v := range joined {
		vf.inMIS.Set(v)
		vf.joinedNow.Set(v)
	}
	for _, v := range joined {
		for _, w := range vf.g.Neighbors(v) {
			nb := int(w)
			if !vf.inMIS.Test(nb) {
				continue
			}
			// Count a same-round adjacent pair once (from its lower
			// endpoint); a join next to an established member is always
			// the joiner's breach.
			if vf.joinedNow.Test(nb) && nb < v {
				continue
			}
			vf.count++
			if len(vf.violations) < maxRecordedViolations {
				vf.violations = append(vf.violations, Violation{Round: round, Node: v, Neighbor: nb})
			}
		}
	}
	for _, v := range joined {
		vf.joinedNow.Clear(v)
	}
}

// ViolationCount returns the number of independence breaches observed
// so far (including any beyond the recorded-witness cap).
func (vf *Verifier) ViolationCount() int { return vf.count }

// Violations returns the recorded breach witnesses, in observation
// order, capped at maxRecordedViolations.
func (vf *Verifier) Violations() []Violation { return vf.violations }

// LastChangeRound returns the last round the membership changed — the
// rounds-to-stable-MIS metric. Zero means the set never changed.
func (vf *Verifier) LastChangeRound() int { return vf.lastChange }

// Rounds returns the highest round observed.
func (vf *Verifier) Rounds() int { return vf.rounds }

// InMIS reports the verifier's view of v's membership; tests use it to
// cross-check against the engine's result.
func (vf *Verifier) InMIS(v int) bool { return vf.inMIS.Test(v) }

// Uncovered returns the nodes that witness a maximality breach at
// termination: not in the set, no neighbour in the set, and not exempt.
// Exempt (may be nil) carries the nodes excused from coverage —
// permanently crashed nodes, which neither join nor need dominating.
// Cost: O(n/64) words plus the set members' adjacency rows, once.
func (vf *Verifier) Uncovered(exempt graph.Bitset) []int {
	n := vf.g.N()
	covered := graph.NewBitset(n)
	copy(covered, vf.inMIS)
	vf.inMIS.ForEach(func(v int) {
		for _, w := range vf.g.Neighbors(v) {
			covered.Set(int(w))
		}
	})
	var out []int
	for v := 0; v < n; v++ {
		if covered.Test(v) || (exempt != nil && exempt.Test(v)) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Check summarises the run: nil when independence held every round and
// the terminal set is maximal (modulo exempt nodes); otherwise an error
// naming the first witnesses.
func (vf *Verifier) Check(exempt graph.Bitset) error {
	if vf.count > 0 {
		return fmt.Errorf("fault: independence violated %d time(s); first: %s", vf.count, vf.violations[0])
	}
	if uncovered := vf.Uncovered(exempt); len(uncovered) > 0 {
		return fmt.Errorf("fault: set not maximal at termination: node %d (of %d) has no neighbour in the set", uncovered[0], len(uncovered))
	}
	return nil
}
