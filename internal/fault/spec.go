// Package fault is the simulator's deterministic round-level
// perturbation layer: it declares what goes wrong during a run — noisy
// channels, adversarial wake-up schedules, transient node outages — and
// verifies what the algorithm nevertheless guarantees.
//
// The paper's central robustness claim is that the feedback algorithm
// needs neither a synchronous start nor reliable communication. A Spec
// turns that claim into an executable workload: per-listener beep loss
// and spurious-beep (false positive) probabilities model an unreliable
// first exchange, wake schedules stagger start-up (uniformly, targeted
// at high-degree hubs, or at explicit per-node rounds), and outages
// take nodes down for round intervals with resume-or-reset recovery
// semantics. A Verifier then checks independence incrementally every
// round and maximality at termination, so a noisy run is judged by what
// held throughout, not just by its terminal state.
//
// Determinism is the package's load-bearing property. Every random
// choice is drawn from a dedicated rng stream derived from the run's
// master seed — channel noise and beep loss from per-(node, round)
// streams, uniform wake-up from a single schedule stream read in node
// order before the round loop starts. No draw depends on engine, shard
// count, or traversal order, which is what lets the columnar and sparse
// engines stay bit-identical under any Spec (enforced by the
// engine-equivalence matrices in internal/sim and the repository root).
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Wake schedule kinds accepted by Wake.Kind.
const (
	// WakeUniform wakes each node at a round drawn uniformly from
	// [1, Window], from the run's dedicated wake stream.
	WakeUniform = "uniform"
	// WakeDegree is the adversarial schedule targeting hubs: nodes wake
	// in ascending degree order spread over [1, Window], so the
	// highest-degree nodes — whose late arrival is most disruptive —
	// wake last. Deterministic given the graph (ties break by node id).
	WakeDegree = "degree"
	// WakeExplicit wakes the nodes listed in Wake.At at their given
	// rounds; unlisted nodes wake at round 1.
	WakeExplicit = "explicit"
)

// Wake declares a wake-up schedule. Enabling any wake schedule also
// makes established MIS members beep and re-announce persistently (the
// Afek et al. DISC'11 fix), exactly like sim.Options.WakeAt.
type Wake struct {
	// Kind selects the schedule: WakeUniform, WakeDegree, or
	// WakeExplicit.
	Kind string `json:"kind"`
	// Window is the round range [1, Window] the uniform and degree
	// schedules spread wake-ups over. Required (≥ 1) for those kinds;
	// rejected for explicit schedules.
	Window int `json:"window,omitempty"`
	// At maps a (1-based) wake round to the nodes waking then
	// (WakeExplicit only, mirroring the crash-schedule shape). Nodes
	// not listed wake at round 1.
	At map[int][]int `json:"at,omitempty"`
}

// Outage takes one node down for a round interval: during rounds
// [From, From+For) the node neither beeps (not even persistent MIS
// announcements), hears, nor observes. At round From+For it recovers.
type Outage struct {
	// Node is the affected node id.
	Node int `json:"node"`
	// From is the (1-based) first down round.
	From int `json:"from"`
	// For is the number of consecutive down rounds (≥ 1).
	For int `json:"for"`
	// Reset selects the recovery semantics: false (resume) brings the
	// node back exactly as it left — same lifecycle state, same
	// algorithm state; true (reset) brings it back as a freshly started
	// active node, dropping any earlier state. A reset MIS member
	// leaves the set (its dominated neighbours stay dominated — they
	// cannot know), which is precisely the adversarial scenario the
	// Verifier's maximality check exists to observe. A reset always
	// fires: the simulator keeps the run alive past early convergence
	// until every pending reset recovery has happened (bounded by the
	// round cap), so a declared perturbation cannot be silently skipped.
	Reset bool `json:"reset,omitempty"`
}

// end returns the first round the node is back up.
func (o Outage) end() int { return o.From + o.For }

// Spec declares a run's fault model. The zero value (and a nil *Spec)
// is the perfect world: lossless channels, synchronous start, no
// outages. Every Spec field is engine-agnostic, so noisy workloads run
// word-parallel and sparse. Per-edge beep loss is not a Spec field: it
// is sim.Options.BeepLoss, drawn by BeepLoss, and composes with Loss
// (beep loss first, then the channel).
type Spec struct {
	// Loss is the probability that a listener which would have heard at
	// least one beep in the first exchange hears silence instead, drawn
	// independently per (listener, round). Join announcements (second
	// exchange) stay reliable, so domination is never forged; what loss
	// can break is independence — two adjacent beepers may both lose
	// each other's beep and both join. Must be in [0, 1).
	Loss float64 `json:"loss,omitempty"`
	// Spurious is the probability that a listener which would have
	// heard silence hears a phantom beep instead, drawn independently
	// per (listener, round). Spurious noise is safe but slows
	// convergence — a node beeping into phantom noise does not join.
	// Applied to every eligible listener, isolated nodes included.
	// Must be in [0, 1).
	Spurious float64 `json:"spurious,omitempty"`
	// Wake staggers node start-up. Mutually exclusive with an explicit
	// sim.Options.WakeAt schedule.
	Wake *Wake `json:"wake,omitempty"`
	// Outages lists transient node downtimes. A node may appear in
	// several outages when their round intervals do not overlap; a node
	// with a permanent crash schedule (sim.Options.CrashAtRound) may
	// not also have outages.
	Outages []Outage `json:"outages,omitempty"`
}

// Enabled reports whether the spec declares anything at all. Any
// non-zero field counts — including out-of-range probabilities, which
// must reach Validate rather than be folded away as "no faults". A nil
// receiver is the perfect world.
func (s *Spec) Enabled() bool {
	return s != nil && (s.Loss != 0 || s.Spurious != 0 || s.Wake != nil || len(s.Outages) > 0)
}

// Channelled reports whether the spec carries channel noise (loss or
// spurious beeps).
func (s *Spec) Channelled() bool { return s != nil && (s.Loss > 0 || s.Spurious > 0) }

// validProb rejects probabilities outside [0, 1) — including NaN, which
// fails every comparison and would otherwise slip through naive
// range checks.
func validProb(p float64) bool { return p >= 0 && p < 1 }

// Validate checks the spec against an n-node graph. It is total: a spec
// that validates runs on every engine (reset outages additionally need
// the algorithm kernel to support resets, which every in-tree kernel
// does). Errors name the offending node and round so fault-injection
// typos fail loudly at submission time.
func (s *Spec) Validate(n int) error {
	if s == nil {
		return nil
	}
	if !validProb(s.Loss) {
		return fmt.Errorf("fault: loss probability %v outside [0, 1)", s.Loss)
	}
	if !validProb(s.Spurious) {
		return fmt.Errorf("fault: spurious probability %v outside [0, 1)", s.Spurious)
	}
	if s.Channelled() && n > MaxChannelNodes {
		// Per-(node, round) noise streams pack the node id into 21 bits
		// (see channelStreamID); beyond that, distinct listeners would
		// silently share correlated noise coins.
		return fmt.Errorf("fault: channel noise supports at most %d nodes (got %d)", MaxChannelNodes, n)
	}
	if err := s.Wake.validate(n); err != nil {
		return err
	}
	return validateOutages(n, s.Outages)
}

// validate checks one wake schedule; a nil schedule is valid.
func (w *Wake) validate(n int) error {
	if w == nil {
		return nil
	}
	switch w.Kind {
	case WakeUniform, WakeDegree:
		if w.Window < 1 {
			return fmt.Errorf("fault: %s wake schedule needs window ≥ 1 (got %d)", w.Kind, w.Window)
		}
		if len(w.At) != 0 {
			return fmt.Errorf("fault: wake field \"at\" is only used by the %q schedule (kind is %q)", WakeExplicit, w.Kind)
		}
	case WakeExplicit:
		if w.Window != 0 {
			return fmt.Errorf("fault: wake field \"window\" is not used by the %q schedule", WakeExplicit)
		}
		if len(w.At) == 0 {
			return fmt.Errorf("fault: explicit wake schedule lists no rounds")
		}
		seen := make(map[int]int, len(w.At))
		for _, round := range sortedKeys(w.At) {
			if round < 1 {
				return fmt.Errorf("fault: wake round %d out of range for node %d (rounds are 1-based)", round, firstNode(w.At[round]))
			}
			for _, v := range w.At[round] {
				if v < 0 || v >= n {
					return fmt.Errorf("fault: wake round %d lists node %d outside [0, %d)", round, v, n)
				}
				if prev, dup := seen[v]; dup {
					return fmt.Errorf("fault: node %d listed to wake twice (rounds %d and %d)", v, min(prev, round), max(prev, round))
				}
				seen[v] = round
			}
		}
	default:
		return fmt.Errorf("fault: unknown wake schedule kind %q (want %q, %q, or %q)", w.Kind, WakeUniform, WakeDegree, WakeExplicit)
	}
	return nil
}

// validateOutages rejects malformed outage lists: bad node ids, rounds
// before the first time step, non-positive durations, and overlapping
// intervals on one node.
func validateOutages(n int, outages []Outage) error {
	if len(outages) == 0 {
		return nil
	}
	perNode := make(map[int][]Outage)
	for _, o := range outages {
		if o.Node < 0 || o.Node >= n {
			return fmt.Errorf("fault: outage lists node %d outside [0, %d)", o.Node, n)
		}
		if o.From < 1 {
			return fmt.Errorf("fault: outage of node %d starts at round %d (rounds are 1-based)", o.Node, o.From)
		}
		if o.For < 1 {
			return fmt.Errorf("fault: outage of node %d at round %d has non-positive duration %d", o.Node, o.From, o.For)
		}
		perNode[o.Node] = append(perNode[o.Node], o)
	}
	// Sorted node order keeps the first-error message deterministic
	// when several nodes have overlapping outages.
	for _, v := range sortedKeys(perNode) {
		os := perNode[v]
		sort.Slice(os, func(i, j int) bool { return os[i].From < os[j].From })
		for i := 1; i < len(os); i++ {
			if os[i].From < os[i-1].end() {
				return fmt.Errorf("fault: node %d has overlapping outages (rounds %d–%d and %d–%d)",
					v, os[i-1].From, os[i-1].end()-1, os[i].From, os[i].end()-1)
			}
		}
	}
	return nil
}

// ValidateAgainstRounds rejects outages that cannot complete within a
// run's round cap: an outage whose recovery round exceeds maxRounds
// would be silently truncated — and a reset recovery that never fires
// is a declared perturbation that looks exactly like robustness.
// (Wake schedules past the cap need no check here: a dormant node
// keeps the run active, so the cap fails loudly with ErrTooManyRounds.)
func (s *Spec) ValidateAgainstRounds(maxRounds int) error {
	if s == nil {
		return nil
	}
	for _, o := range s.Outages {
		if o.end() > maxRounds {
			return fmt.Errorf("fault: outage of node %d recovers at round %d, beyond the %d-round cap (raise max rounds or shorten the outage)", o.Node, o.end(), maxRounds)
		}
	}
	return nil
}

// ValidateAgainstCrashes rejects a node appearing in both a permanent
// crash schedule and the spec's outage list: "crashes forever at round
// r" and "comes back at round r'" cannot both hold, and silently
// picking one would hide the contradiction from the experimenter.
func (s *Spec) ValidateAgainstCrashes(crashes map[int][]int) error {
	if s == nil || len(s.Outages) == 0 || len(crashes) == 0 {
		return nil
	}
	crashed := make(map[int]int, len(crashes))
	for _, round := range sortedKeys(crashes) {
		for _, v := range crashes[round] {
			crashed[v] = round
		}
	}
	for _, o := range s.Outages {
		if round, ok := crashed[o.Node]; ok {
			return fmt.Errorf("fault: node %d has both a permanent crash (round %d) and a transient outage (round %d); pick one", o.Node, round, o.From)
		}
	}
	return nil
}

// Normalized returns a canonical copy: explicit wake node lists sorted,
// outages ordered by (node, from). Two specs describing the same fault
// model normalise equal, which is what keeps the scenario content hash
// insensitive to listing order. A nil or all-zero spec normalises to
// nil, so "no faults" and an empty faults block hash identically.
func (s *Spec) Normalized() *Spec {
	if !s.Enabled() {
		return nil
	}
	n := *s
	if s.Wake != nil {
		w := *s.Wake
		if len(w.At) > 0 {
			at := make(map[int][]int, len(w.At))
			for _, round := range sortedKeys(w.At) {
				sorted := append([]int(nil), w.At[round]...)
				sort.Ints(sorted)
				at[round] = sorted
			}
			w.At = at
		}
		n.Wake = &w
	}
	if len(s.Outages) > 0 {
		n.Outages = append([]Outage(nil), s.Outages...)
		sort.Slice(n.Outages, func(i, j int) bool {
			if n.Outages[i].Node != n.Outages[j].Node {
				return n.Outages[i].Node < n.Outages[j].Node
			}
			return n.Outages[i].From < n.Outages[j].From
		})
	}
	return &n
}

// ParseSpec decodes a JSON fault spec strictly (unknown fields are
// errors) without graph-dependent validation — callers follow up with
// Validate(n) once the node count is known. This is the -faults flag's
// entry point on the CLIs.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parse spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fault: parse spec: trailing data after document")
	}
	return &s, nil
}

// sortedKeys returns a round-keyed map's keys ascending, for
// deterministic validation order (and thus deterministic first-error
// messages).
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// firstNode returns the first listed node of a wake round, for error
// messages; -1 when the list is empty.
func firstNode(nodes []int) int {
	if len(nodes) == 0 {
		return -1
	}
	return nodes[0]
}
