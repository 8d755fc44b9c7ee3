// Package scenario turns declarative workload descriptions — JSON
// documents naming a graph family, a beeping algorithm, engine options,
// fault schedules, trial counts and parameter sweeps — into validated,
// executable simulation plans.
//
// A Spec is the unit of the service layer: cmd/misrun executes one from
// a file, cmd/misd accepts them over HTTP, and internal/service caches
// results by the spec's content hash. Three properties make that work:
//
//   - Validation is total and up front. Parse and Compile reject
//     malformed input (unknown families/algorithms, out-of-range
//     parameters, oversized workloads) before any simulation starts, so
//     a served scenario never fails halfway for a reason that was
//     visible in its text.
//   - The canonical form is semantic. Canonical()/Hash() strip the
//     performance-only knobs (engine, shards, workers) and apply all
//     defaults, so two specs that must produce identical results hash
//     identically — the service's cache key.
//   - Execution is deterministic. Every trial draws from rng streams
//     derived from (seed, unit, trial), aggregation happens in trial
//     order on the package's trial pool (ForTrials), and the Report JSON
//     is a pure function of the canonical spec. Equal hashes ⇒
//     byte-equal reports.
//
// The paper's experiments (internal/experiment) are lists of specs run
// here, so every figure point is the report of a spec that misrun and
// misd can run too.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
)

// Workload ceilings. Scenarios arrive from untrusted input (HTTP
// bodies, user files), so the compiler bounds what a single spec may
// ask of the machine; anything larger belongs in a purpose-built
// harness, not the service layer.
const (
	// MaxNodes caps the node count of any single graph.
	MaxNodes = 1 << 20
	// MaxUnitMemory caps the estimated memory footprint of a unit's
	// simulation: the graph build's transient storage plus the
	// representation the compiled plan will actually use (dense matrix
	// for a columnar plan, the graph's CSR rows for a sparse one,
	// whether pinned or picked by the auto heuristic). Bounding by footprint rather
	// than by a blanket edge cap is what admits sparse million-node
	// specs while still failing infeasible dense ones up front — a
	// graph is only too big when the plan's representation is.
	MaxUnitMemory = int64(4) << 30
	// MaxTrials caps the per-unit trial count.
	MaxTrials = 100000
	// MaxUnits caps the number of units a sweep may expand to.
	MaxUnits = 256
)

// GraphSpec names a graph family and its parameters. Families use the
// subset of fields listed in their familyInfo; Validate rejects any
// family/parameter combination outside it.
type GraphSpec struct {
	// Family is one of Families(): "gnp", "grid", "torus", "complete",
	// "cliques", "path", "cycle", "star", "tree", "unitdisk",
	// "barabasialbert", "wattsstrogatz", "hypercube", "randomregular",
	// "completebinarytree", "rmat", "configmodel" or "file".
	Family string `json:"family"`
	// N is the node count (families parameterised by n).
	N int `json:"n,omitempty"`
	// P is the edge probability (gnp).
	P float64 `json:"p,omitempty"`
	// Rows and Cols shape the grid and torus families.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Radius is the unit-disk connection radius.
	Radius float64 `json:"radius,omitempty"`
	// M is the Barabási–Albert attachment count.
	M int `json:"m,omitempty"`
	// D is the hypercube dimension or the random-regular degree.
	D int `json:"d,omitempty"`
	// K is the Watts–Strogatz base degree (even).
	K int `json:"k,omitempty"`
	// Beta is the Watts–Strogatz rewiring probability.
	Beta float64 `json:"beta,omitempty"`
	// Edges is the sampled edge count of the rmat and configmodel
	// families (self-loops and duplicate samples are dropped, so the
	// instance's edge count is at most this).
	Edges int64 `json:"edges,omitempty"`
	// A, B, C are the rmat quadrant probabilities (the fourth quadrant
	// gets the remainder 1−a−b−c); all-zero means the Graph500 defaults
	// (0.57, 0.19, 0.19, leaving 0.05).
	A float64 `json:"a,omitempty"`
	B float64 `json:"b,omitempty"`
	C float64 `json:"c,omitempty"`
	// Gamma is the configmodel power-law exponent; 0 means 2.5.
	Gamma float64 `json:"gamma,omitempty"`
	// Path locates the graph file of the "file" family, resolved
	// relative to the running process's working directory.
	Path string `json:"path,omitempty"`
	// Format names the file's format ("edgelist", "edgelist-binary",
	// "metis"); empty means inferred from the path's extension.
	Format string `json:"format,omitempty"`
	// Digest is the hex SHA-256 of the graph file's bytes. Compile
	// computes it and folds it into the content hash — the same spec
	// over different file bytes is a different scenario, which is what
	// keeps the misd result cache sound for file-referenced graphs. A
	// spec may pre-set it to pin the expected file content; a mismatch
	// with the actual file is a compile error.
	Digest string `json:"digest,omitempty"`
	// Seed, when non-zero, pins the graph: every trial runs on the same
	// instance generated from this seed. When zero (the default) random
	// families draw a fresh instance per trial from the scenario's
	// per-trial streams — the convention of the paper's experiments.
	Seed uint64 `json:"seed,omitempty"`
}

// FeedbackSpec mirrors mis.FeedbackConfig field for field for the JSON
// surface; zero fields mean the paper defaults (p₀ = 1/2, halve/double,
// cap 1/2, no floor). FactorMax makes each adjustment draw its factor
// uniformly from [factor, factor_max]; InitialPByID starts node v at
// initial_p_by_id[v mod len] (1 to 64 entries, each in (0, max_p]).
type FeedbackSpec struct {
	InitialP     float64   `json:"initial_p,omitempty"`
	Factor       float64   `json:"factor,omitempty"`
	MaxP         float64   `json:"max_p,omitempty"`
	MinP         float64   `json:"min_p,omitempty"`
	FactorMax    float64   `json:"factor_max,omitempty"`
	InitialPByID []float64 `json:"initial_p_by_id,omitempty"`
}

// SweepSpec turns one spec into a grid of units: the cross product of
// the listed node counts, edge probabilities and algorithms, each
// defaulting to the base spec's single value when empty. Unit order is
// deterministic: algorithms × n × p, in listed order.
type SweepSpec struct {
	N          []int     `json:"n,omitempty"`
	P          []float64 `json:"p,omitempty"`
	Algorithms []string  `json:"algorithm,omitempty"`
}

// Spec is a declarative scenario: what to simulate, with what
// randomness, and how hard to push the machine while doing it.
//
// Engine, Shards and Workers are performance knobs: every engine,
// shard count and worker count produces bit-identical results (the
// engine-equivalence guarantee plus the trial pool's determinism
// contract), so they are excluded from the canonical form and the
// content hash.
type Spec struct {
	// Name is a free-form label carried into the report; it does not
	// affect results or the content hash.
	Name string `json:"name,omitempty"`
	// Graph names the workload's graph family and parameters.
	Graph GraphSpec `json:"graph"`
	// Algorithm is a beeping algorithm accepted by mis.NewFactories:
	// "feedback", "globalsweep", "afek", or "fixed".
	Algorithm string `json:"algorithm"`
	// Feedback tunes the feedback algorithm (algorithm == "feedback").
	Feedback *FeedbackSpec `json:"feedback,omitempty"`
	// AfekStepsPerLevel overrides the Science'11 schedule's steps per
	// probability level (algorithm == "afek"); 0 means ceil(log2 n).
	AfekStepsPerLevel int `json:"afek_steps_per_level,omitempty"`
	// FixedP is the constant beep probability (algorithm == "fixed");
	// 0 means 1/2.
	FixedP float64 `json:"fixed_p,omitempty"`
	// Engine picks the simulation engine: "auto" (default), "columnar"
	// or "sparse"; the legacy names "bitset" and "scalar" run columnar
	// and sparse respectively. Performance-only; excluded from the
	// hash.
	Engine string `json:"engine,omitempty"`
	// Shards bounds the columnar and sparse engines' propagation
	// goroutines. Performance-only; excluded from the hash.
	Shards int `json:"shards,omitempty"`
	// Workers bounds the trial pool; 0 means GOMAXPROCS.
	// Performance-only; excluded from the hash.
	Workers int `json:"workers,omitempty"`
	// Trials is the number of independent runs per unit; 0 means 1.
	Trials int `json:"trials,omitempty"`
	// Seed is the master seed; 0 is normalised to 1 so that "no seed"
	// and "seed": 1 are the same scenario.
	Seed uint64 `json:"seed,omitempty"`
	// MaxRounds caps each run's synchronous rounds; 0 means the
	// simulator default.
	MaxRounds int `json:"max_rounds,omitempty"`
	// BeepLoss is the per-(beeper, listener) beep loss probability of
	// the robustness experiments (see sim.Options.BeepLoss); it runs on
	// every engine.
	BeepLoss float64 `json:"beep_loss,omitempty"`
	// CrashAtRound schedules node crashes: round (1-based) → node ids.
	CrashAtRound map[int][]int `json:"crash_at_round,omitempty"`
	// WakeWindow staggers node wake-up: each node wakes at a round drawn
	// uniformly from [1, WakeWindow] from its trial's wake stream. 0
	// disables wake-up scheduling (all nodes start awake). Mutually
	// exclusive with a wake schedule inside Faults.
	WakeWindow int `json:"wake_window,omitempty"`
	// Faults declares the run's fault model: per-listener channel noise
	// (loss/spurious), adversarial wake-up schedules, and transient
	// outages with resume-or-reset recovery (see internal/fault). Every
	// fault feature runs on every engine with bit-identical results, so
	// it composes with sparse million-node workloads. Changes results,
	// so it is part of the content hash.
	Faults *fault.Spec `json:"faults,omitempty"`
	// Sweep expands the spec into a grid of units.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// ParseCompiled decodes, validates and compiles a scenario spec in one
// pass — the submission path's entry point (parsing without compiling
// would just compile twice; every caller needs the units and the hash
// anyway). Unknown fields are errors — a typo in a served workload
// should fail the submission, not silently run the default it happened
// to shadow.
func ParseCompiled(r io.Reader) (*Compiled, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// A second document in the same stream is almost certainly a
	// concatenation mistake; reject rather than ignore.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after spec document")
	}
	return s.Compile()
}

// ParseCompiledBytes is ParseCompiled over an in-memory document.
func ParseCompiledBytes(b []byte) (*Compiled, error) {
	return ParseCompiled(bytes.NewReader(b))
}

// ParseGraph decodes the command-line graph grammar
// "family:key=value,…", whose keys are GraphSpec's JSON names (e.g.
// "gnp:n=200,p=0.5" or "file:path=net.el"). The pairs decode through
// encoding/json as a spec file's graph block does, so an unknown key or
// a value of the wrong type is an error; a value that is not a JSON
// literal is read as a string. ParseGraph checks the grammar, and that
// p= and beta= are given where the family reads them; GraphSpec.Build
// checks the parameters against the family.
func ParseGraph(s string) (GraphSpec, error) {
	family, pairs, _ := strings.Cut(s, ":")
	if family == "" {
		return GraphSpec{}, fmt.Errorf("scenario: graph %q names no family (want family:key=value,…)", s)
	}
	doc := map[string]json.RawMessage{"family": quoteJSON(family)}
	if pairs != "" {
		for _, pair := range strings.Split(pairs, ",") {
			key, value, ok := strings.Cut(pair, "=")
			if !ok {
				return GraphSpec{}, fmt.Errorf("scenario: graph %q: %q is not key=value", s, pair)
			}
			// encoding/json matches keys to fields case-insensitively, so
			// "N" and "n" are one key.
			key = strings.ToLower(key)
			if _, dup := doc[key]; dup {
				return GraphSpec{}, fmt.Errorf("scenario: graph %q gives %q twice", s, key)
			}
			raw := json.RawMessage(value)
			if !json.Valid(raw) {
				raw = quoteJSON(value)
			}
			doc[key] = raw
		}
	}
	b, _ := json.Marshal(doc) // every value is valid JSON by construction
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var g GraphSpec
	if err := dec.Decode(&g); err != nil {
		return GraphSpec{}, fmt.Errorf("scenario: graph %q: %w", s, err)
	}
	// A family that reads p or beta needs the key spelled out: p=0 is
	// the edgeless G(n, 0) and beta=0 the unrewired ring lattice, graphs
	// a command line should not build unasked. (A spec file's graph
	// block keeps JSON's zero values.)
	info := families[g.Family] // an unknown family is Build's error
	reads := map[string]bool{"p": info.usesP, "beta": slices.Contains(info.extra, "beta")}
	for _, key := range []string{"p", "beta"} {
		if _, given := doc[key]; reads[key] && !given {
			return GraphSpec{}, fmt.Errorf("scenario: graph %q needs %s= (family %q reads it)", s, key, g.Family)
		}
	}
	return g, nil
}

// quoteJSON encodes s as a JSON string.
func quoteJSON(s string) json.RawMessage {
	b, _ := json.Marshal(s) // a string always encodes
	return b
}

// Parse decodes and validates a scenario spec, returning its
// normalised form. Callers that go on to execute should prefer
// ParseCompiled and keep the Compiled.
func Parse(r io.Reader) (*Spec, error) {
	c, err := ParseCompiled(r)
	if err != nil {
		return nil, err
	}
	return c.Spec, nil
}

// Normalized returns a copy of the spec with every default applied:
// seed 0 → 1, trials 0 → 1, engine "" → "auto", feedback/afek/fixed
// parameter defaults materialised for the selected algorithm (and
// cleared for the others), and single-value sweeps folded away. Two
// specs that normalise equal are the same scenario.
func (s *Spec) Normalized() *Spec {
	n := *s
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Trials == 0 {
		n.Trials = 1
	}
	if n.Engine == "" {
		n.Engine = "auto"
	}
	n.Graph = n.Graph.withDefaults()
	// Fold the sweep: a one-point axis is the same scenario as the
	// plain base field (the compiled units and rng streams are
	// identical), so collapse single-value axes into the base and drop
	// an emptied sweep — otherwise equivalent specs would hash apart
	// and split the cache.
	if s.Sweep != nil {
		sw := SweepSpec{
			N:          append([]int(nil), s.Sweep.N...),
			P:          append([]float64(nil), s.Sweep.P...),
			Algorithms: append([]string(nil), s.Sweep.Algorithms...),
		}
		if len(sw.N) == 1 {
			n.Graph.N = sw.N[0]
			sw.N = nil
		}
		if len(sw.P) == 1 {
			n.Graph.P = sw.P[0]
			sw.P = nil
		}
		if len(sw.Algorithms) == 1 {
			n.Algorithm = sw.Algorithms[0]
			sw.Algorithms = nil
		}
		if len(sw.N) == 0 && len(sw.P) == 0 && len(sw.Algorithms) == 0 {
			n.Sweep = nil
		} else {
			n.Sweep = &sw
		}
	}
	// A sweep's algorithm list replaces the base Algorithm entirely, so
	// normalise the base to the list's head — otherwise two specs
	// differing only in an unused base field would split the cache.
	selected := map[string]bool{n.Algorithm: true}
	if n.Sweep != nil && len(n.Sweep.Algorithms) > 0 {
		n.Algorithm = n.Sweep.Algorithms[0]
		selected = make(map[string]bool, len(n.Sweep.Algorithms))
		for _, a := range n.Sweep.Algorithms {
			selected[a] = true
		}
	}
	// Algorithm parameters only exist for their algorithm; drop stray
	// ones so they cannot split the cache. A sweep may run several
	// algorithms, so a parameter survives if any selected algorithm
	// reads it.
	if selected["feedback"] {
		fb := FeedbackSpec{InitialP: 0.5, Factor: 2, MaxP: 0.5}
		if s.Feedback != nil {
			fb = *s.Feedback
			fb.InitialPByID = slices.Clone(fb.InitialPByID)
			if fb.InitialP == 0 {
				fb.InitialP = 0.5
			}
			if fb.Factor == 0 {
				fb.Factor = 2
			}
			if fb.MaxP == 0 {
				fb.MaxP = 0.5
			}
			// A one-point factor range is the fixed step.
			if fb.FactorMax == fb.Factor {
				fb.FactorMax = 0
			}
		}
		n.Feedback = &fb
	} else {
		n.Feedback = nil
	}
	if !selected["afek"] {
		n.AfekStepsPerLevel = 0
	}
	if selected["fixed"] {
		if n.FixedP == 0 {
			n.FixedP = 0.5
		}
	} else {
		n.FixedP = 0
	}
	if s.CrashAtRound != nil {
		// Node lists are sets (ValidateCrashes rejects duplicates), so
		// sort them: order-only permutations of one crash schedule must
		// hash identically.
		n.CrashAtRound = make(map[int][]int, len(s.CrashAtRound))
		//misvet:allow(determinism) keyed copy into a fresh map: each write lands at its own round key, and encoding/json sorts map keys when the canonical form is serialised
		for round, nodes := range s.CrashAtRound {
			sorted := append([]int(nil), nodes...)
			sort.Ints(sorted)
			n.CrashAtRound[round] = sorted
		}
	}
	// Fault specs canonicalise the same way (sorted wake lists and
	// outages); an all-zero faults block folds to nil so "no faults"
	// spelled either way hashes identically.
	n.Faults = s.Faults.Normalized()
	return &n
}

// withDefaults returns g with its family's defaults materialised, for
// the same reason Normalized materialises the algorithm defaults: "rmat
// with no probabilities" and "rmat with the Graph500 probabilities
// spelled out" are the same workload and must hash identically.
func (g GraphSpec) withDefaults() GraphSpec {
	switch g.Family {
	case "rmat":
		if g.A == 0 && g.B == 0 && g.C == 0 {
			g.A, g.B, g.C = 0.57, 0.19, 0.19
		}
	case "configmodel":
		if g.Gamma == 0 {
			g.Gamma = 2.5
		}
	case "file":
		if g.Format == "" && g.Path != "" {
			g.Format = graph.DetectGraphFormat(g.Path)
		}
	}
	return g
}

// canonicalSpec is the hash surface: a Spec minus the fields that
// cannot change results. Keep field order stable — it is serialised
// into cache keys.
type canonicalSpec struct {
	Graph             GraphSpec     `json:"graph"`
	Algorithm         string        `json:"algorithm"`
	Feedback          *FeedbackSpec `json:"feedback,omitempty"`
	AfekStepsPerLevel int           `json:"afek_steps_per_level,omitempty"`
	FixedP            float64       `json:"fixed_p,omitempty"`
	Trials            int           `json:"trials"`
	Seed              uint64        `json:"seed"`
	MaxRounds         int           `json:"max_rounds,omitempty"`
	BeepLoss          float64       `json:"beep_loss,omitempty"`
	CrashAtRound      map[int][]int `json:"crash_at_round,omitempty"`
	WakeWindow        int           `json:"wake_window,omitempty"`
	Faults            *fault.Spec   `json:"faults,omitempty"`
	Sweep             *SweepSpec    `json:"sweep,omitempty"`
}

// Canonical returns the spec's canonical serialisation: defaults
// applied, performance knobs (name, engine, shards, workers) stripped,
// fields in declaration order, map keys sorted by encoding/json. Two
// specs with equal Canonical bytes are guaranteed — not just expected —
// to produce byte-identical reports.
func (s *Spec) Canonical() ([]byte, error) {
	n := s.Normalized()
	// A file-family spec's hash covers the file's bytes via the digest
	// Compile resolves. Hashing one without a digest would let two
	// different graphs share a cache key, so the unresolved form has no
	// canonical serialisation — Compile (and everything above it) always
	// hashes the resolved spec.
	if n.Graph.Family == "file" && n.Graph.Digest == "" {
		return nil, fmt.Errorf("scenario: file-family spec has no resolved digest (hash via Compile, which reads the file)")
	}
	c := canonicalSpec{
		Graph:             n.Graph,
		Algorithm:         n.Algorithm,
		Feedback:          n.Feedback,
		AfekStepsPerLevel: n.AfekStepsPerLevel,
		FixedP:            n.FixedP,
		Trials:            n.Trials,
		Seed:              n.Seed,
		MaxRounds:         n.MaxRounds,
		BeepLoss:          n.BeepLoss,
		CrashAtRound:      n.CrashAtRound,
		WakeWindow:        n.WakeWindow,
		Faults:            n.Faults,
		Sweep:             n.Sweep,
	}
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalise: %w", err)
	}
	return b, nil
}

// Hash returns the scenario's content hash: hex SHA-256 of the
// canonical serialisation. It is the service layer's cache key and job
// id.
func (s *Spec) Hash() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	return hashOf(b), nil
}

// hashOf hashes already-canonicalised bytes (Compile holds them, so it
// need not marshal twice).
func hashOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Validate checks the spec without building anything. It is the
// submission-time gate of the service layer: a spec that validates
// compiles, and a compiled spec runs (up to the round cap).
func (s *Spec) Validate() error {
	if _, err := s.Compile(); err != nil {
		return err
	}
	return nil
}

// sortedCrashRounds returns the crash schedule's rounds in ascending
// order (for deterministic error messages and report fields).
func sortedCrashRounds(crashes map[int][]int) []int {
	rounds := make([]int, 0, len(crashes))
	for r := range crashes {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	return rounds
}
