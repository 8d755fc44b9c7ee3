package scenario

import (
	"fmt"
	"math"
	"sort"

	"beepmis/internal/beep"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// familyInfo describes one graph family: which GraphSpec fields it
// reads, whether it is randomised, and how to build an instance. build
// receives the unit's effective n and p (post-sweep) and a source that
// is nil exactly when random is false.
type familyInfo struct {
	// usesN/usesP report whether the family is parameterised by the
	// swept coordinates; sweeping a coordinate the family ignores is a
	// spec error, not a silent no-op.
	usesN, usesP bool
	// random families consume a generation seed.
	random bool
	// extra lists the family-specific GraphSpec fields beyond
	// n/p/seed (which usesN/usesP/random govern). A set field outside
	// the family's parameter set is rejected: it would be silently
	// ignored by the builder yet serialised into the content hash,
	// splitting the cache between identical workloads.
	extra []string
	// expectedEdges estimates the instance's edge count for the
	// memory-footprint admission bound (an overestimate is fine).
	expectedEdges func(g GraphSpec, n int, p float64) float64
	// nodes returns the instance's node count for bounds checking.
	nodes func(g GraphSpec, n int) int
	// validate checks family-specific parameters (n/p range checks are
	// shared and happen first).
	validate func(g GraphSpec, n int, p float64) error
	build    func(g GraphSpec, n int, p float64, src *rng.Source) (*graph.Graph, error)
	// buildInto, when set, builds the same per-trial instance as build
	// into storage the trial worker reuses across a unit's trials.
	buildInto func(s *graph.Scratch, n int, p float64, src *rng.Source) *graph.Graph
}

func nSquaredEdges(g GraphSpec, n int, p float64) float64 {
	return p * float64(n) * float64(n-1) / 2
}

// cliqueK mirrors graph.CliqueFamily's size parameter.
func cliqueK(n int) int {
	k := int(math.Cbrt(float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}
func linearEdges(g GraphSpec, n int, _ float64) float64 { return float64(2 * n) }
func identityNodes(_ GraphSpec, n int) int              { return n }
func noValidate(GraphSpec, int, float64) error          { return nil }

// families is the graph-family registry. Read-only after package init.
var families = map[string]familyInfo{
	"gnp": {
		usesN: true, usesP: true, random: true,
		expectedEdges: nSquaredEdges,
		nodes:         identityNodes,
		validate:      noValidate,
		build: func(_ GraphSpec, n int, p float64, src *rng.Source) (*graph.Graph, error) {
			return graph.GNP(n, p, src), nil
		},
		buildInto: (*graph.Scratch).GNP,
	},
	"complete": {
		usesN: true,
		expectedEdges: func(_ GraphSpec, n int, _ float64) float64 {
			return float64(n) * float64(n-1) / 2
		},
		nodes:    identityNodes,
		validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Complete(n), nil
		},
	},
	"cliques": {
		usesN: true,
		// k = ⌊n^(1/3)⌋ disjoint copies of K_d for each d = 1..k:
		// k·k(k+1)/2 = Θ(n) vertices, k·(k³-k)/6 ≈ n^(4/3)/6 edges.
		expectedEdges: func(_ GraphSpec, n int, _ float64) float64 {
			k := cliqueK(n)
			return float64(k) * float64(k*k*k-k) / 6
		},
		nodes: func(_ GraphSpec, n int) int {
			k := cliqueK(n)
			return k * k * (k + 1) / 2
		},
		validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.CliqueFamily(n), nil
		},
	},
	"grid": {
		extra:         []string{"rows", "cols"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 { return 2 * float64(g.Rows) * float64(g.Cols) },
		nodes:         func(g GraphSpec, _ int) int { return g.Rows * g.Cols },
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.Rows <= 0 || g.Cols <= 0 {
				return fmt.Errorf("scenario: grid needs positive rows and cols (got %d×%d)", g.Rows, g.Cols)
			}
			return nil
		},
		build: func(g GraphSpec, _ int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Grid(g.Rows, g.Cols), nil
		},
	},
	"torus": {
		extra:         []string{"rows", "cols"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 { return 2 * float64(g.Rows) * float64(g.Cols) },
		nodes:         func(g GraphSpec, _ int) int { return g.Rows * g.Cols },
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.Rows <= 0 || g.Cols <= 0 {
				return fmt.Errorf("scenario: torus needs positive rows and cols (got %d×%d)", g.Rows, g.Cols)
			}
			return nil
		},
		build: func(g GraphSpec, _ int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Torus(g.Rows, g.Cols), nil
		},
	},
	"path": {
		usesN: true, expectedEdges: linearEdges, nodes: identityNodes, validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Path(n), nil
		},
	},
	"cycle": {
		usesN: true, expectedEdges: linearEdges, nodes: identityNodes,
		validate: func(_ GraphSpec, n int, _ float64) error {
			if n < 3 {
				return fmt.Errorf("scenario: cycle needs n ≥ 3 (got %d)", n)
			}
			return nil
		},
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Cycle(n), nil
		},
	},
	"star": {
		usesN: true, expectedEdges: linearEdges, nodes: identityNodes, validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Star(n), nil
		},
	},
	"tree": {
		usesN: true, random: true, expectedEdges: linearEdges, nodes: identityNodes, validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.RandomTree(n, src), nil
		},
	},
	"completebinarytree": {
		usesN: true, expectedEdges: linearEdges, nodes: identityNodes, validate: noValidate,
		build: func(_ GraphSpec, n int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.CompleteBinaryTree(n), nil
		},
	},
	"unitdisk": {
		usesN: true, random: true, extra: []string{"radius"},
		expectedEdges: func(g GraphSpec, n int, _ float64) float64 {
			// Pair connection probability ≈ area of the radius disk
			// clipped to the unit square; πr² is an adequate bound.
			return math.Pi * g.Radius * g.Radius * float64(n) * float64(n-1) / 2
		},
		nodes: identityNodes,
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.Radius <= 0 || g.Radius > math.Sqrt2 {
				return fmt.Errorf("scenario: unitdisk radius %v outside (0, √2]", g.Radius)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.UnitDisk(n, g.Radius, src), nil
		},
	},
	"barabasialbert": {
		usesN: true, random: true, extra: []string{"m"},
		expectedEdges: func(g GraphSpec, n int, _ float64) float64 { return float64(g.M) * float64(n) },
		nodes:         identityNodes,
		validate: func(g GraphSpec, n int, _ float64) error {
			if g.M <= 0 || g.M >= n {
				return fmt.Errorf("scenario: barabasialbert attachment m=%d outside (0, n=%d)", g.M, n)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.BarabasiAlbert(n, g.M, src)
		},
	},
	"wattsstrogatz": {
		usesN: true, random: true, extra: []string{"k", "beta"},
		expectedEdges: func(g GraphSpec, n int, _ float64) float64 { return float64(g.K) * float64(n) / 2 },
		nodes:         identityNodes,
		validate: func(g GraphSpec, n int, _ float64) error {
			if g.K <= 0 || g.K%2 != 0 || g.K >= n {
				return fmt.Errorf("scenario: wattsstrogatz base degree k=%d must be even and in (0, n=%d)", g.K, n)
			}
			if g.Beta < 0 || g.Beta > 1 {
				return fmt.Errorf("scenario: wattsstrogatz beta %v outside [0,1]", g.Beta)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.WattsStrogatz(n, g.K, g.Beta, src)
		},
	},
	"hypercube": {
		extra: []string{"d"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 {
			return float64(g.D) * math.Exp2(float64(g.D)) / 2
		},
		nodes: func(g GraphSpec, _ int) int {
			if g.D < 0 || g.D > 20 {
				return MaxNodes + 1 // out of range; validate reports the real error
			}
			return 1 << g.D
		},
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.D <= 0 || g.D > 20 {
				return fmt.Errorf("scenario: hypercube dimension d=%d outside [1, 20]", g.D)
			}
			return nil
		},
		build: func(g GraphSpec, _ int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			return graph.Hypercube(g.D)
		},
	},
	"randomregular": {
		usesN: true, random: true, extra: []string{"d"},
		expectedEdges: func(g GraphSpec, n int, _ float64) float64 { return float64(g.D) * float64(n) / 2 },
		nodes:         identityNodes,
		validate: func(g GraphSpec, n int, _ float64) error {
			if g.D <= 0 || g.D >= n || (g.D*n)%2 != 0 {
				return fmt.Errorf("scenario: randomregular degree d=%d invalid for n=%d (need 0 < d < n, d·n even)", g.D, n)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.RandomRegular(n, g.D, src)
		},
	},
	// The three streamed families. They build through graph.CSRBuilder
	// in two passes over their edge stream (regenerated, or re-read
	// from the file), never holding the edge list.
	"rmat": {
		usesN: true, random: true, extra: []string{"edges", "a", "b", "c"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 { return float64(g.Edges) },
		nodes:         identityNodes,
		validate: func(g GraphSpec, n int, _ float64) error {
			if n < 2 || n&(n-1) != 0 {
				return fmt.Errorf("scenario: rmat needs n a power of two ≥ 2 (got %d)", n)
			}
			if g.Edges < 1 {
				return fmt.Errorf("scenario: rmat needs edges ≥ 1 (got %d)", g.Edges)
			}
			if err := graph.ValidateRMATProbs(g.A, g.B, g.C, 1-g.A-g.B-g.C); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.RMATCSR(n, g.Edges, g.A, g.B, g.C, 1-g.A-g.B-g.C, src, 0)
		},
	},
	"configmodel": {
		usesN: true, random: true, extra: []string{"edges", "gamma"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 { return float64(g.Edges) },
		nodes:         identityNodes,
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.Edges < 1 {
				return fmt.Errorf("scenario: configmodel needs edges ≥ 1 (got %d)", g.Edges)
			}
			if math.IsNaN(g.Gamma) || g.Gamma <= 2 {
				return fmt.Errorf("scenario: configmodel exponent gamma=%v must exceed 2 (finite mean degree)", g.Gamma)
			}
			return nil
		},
		build: func(g GraphSpec, n int, _ float64, src *rng.Source) (*graph.Graph, error) {
			return graph.ConfigModelCSR(n, g.Edges, g.Gamma, src, 0)
		},
	},
	// file loads a graph from disk through the streaming loaders. It is
	// deterministic (not random: the file's bytes are pinned by the
	// digest Compile resolves), so the runner builds it once per unit
	// and shares it across trials.
	"file": {
		extra: []string{"path", "format", "digest"},
		expectedEdges: func(g GraphSpec, _ int, _ float64) float64 {
			info, err := graph.PeekGraphFile(g.Path, g.Format)
			if err != nil {
				return float64(MaxUnitMemory) // validate reports the real error
			}
			return float64(info.Edges)
		},
		nodes: func(g GraphSpec, _ int) int {
			info, err := graph.PeekGraphFile(g.Path, g.Format)
			if err != nil {
				return MaxNodes + 1 // out of range; validate reports the real error
			}
			return info.N
		},
		validate: func(g GraphSpec, _ int, _ float64) error {
			if g.Path == "" {
				return fmt.Errorf("scenario: file family needs a graph path")
			}
			if _, err := graph.PeekGraphFile(g.Path, g.Format); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			return nil
		},
		build: func(g GraphSpec, _ int, _ float64, _ *rng.Source) (*graph.Graph, error) {
			gr, digest, err := graph.LoadCSRFile(g.Path, g.Format, 0)
			if err != nil {
				return nil, err
			}
			// The compiled plan's hash covers g.Digest; a different file
			// on disk at run time would silently poison the result cache.
			if digest != g.Digest {
				return nil, fmt.Errorf("graph file %s has digest %s, but the compiled scenario expects %s (file changed since submission?)", g.Path, digest, g.Digest)
			}
			return gr, nil
		},
	},
}

// Families returns the supported graph family names, sorted.
func Families() []string {
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Unit is one compiled workload of a scenario: a single (graph,
// algorithm, parameters) point, executed for the spec's trial count.
type Unit struct {
	// Index is the unit's position in the sweep expansion order.
	Index int
	// Algorithm is the resolved algorithm name.
	Algorithm string
	// N and P are the unit's effective graph parameters (N is the
	// requested coordinate, not necessarily the instance's node count —
	// see familyInfo.nodes).
	N int
	P float64
	// Nodes is the instance node count implied by the family and N.
	Nodes int
	// PlannedEngine is the engine the compiled plan expects sim.Run to
	// execute for this unit: the spec's pin (in its canonical form), or
	// — for "auto" — the heuristic's estimated choice from the expected
	// node and edge counts. The admission bound budgets this
	// representation's memory; it is an estimate (random instances
	// vary), never a semantic knob.
	PlannedEngine sim.Engine

	graph   GraphSpec
	info    familyInfo
	factory beep.Factory
	bulk    beep.BulkFactory
	spec    *Spec // the owning compiled (normalised) spec
}

// Compiled is a validated, executable scenario: the normalised spec,
// its content hash, and the expanded unit list.
type Compiled struct {
	// Spec is the normalised spec (defaults applied).
	Spec *Spec
	// Canonical is the canonical serialisation (the hash preimage).
	Canonical []byte
	// Hash is the content hash — the service cache key.
	Hash string
	// Units are the expanded workloads in deterministic order.
	Units []*Unit

	// engine is the resolved engine pin, validated once here so the
	// runner need not re-derive it per unit.
	engine sim.Engine
}

// graphFieldChecks pairs every family-specific GraphSpec field with its
// set-ness; used to reject fields the selected family ignores (they
// would silently change nothing yet split the content hash).
func graphFieldChecks(g GraphSpec) map[string]bool {
	return map[string]bool{
		"rows":   g.Rows != 0,
		"cols":   g.Cols != 0,
		"radius": g.Radius != 0,
		"m":      g.M != 0,
		"d":      g.D != 0,
		"k":      g.K != 0,
		"beta":   g.Beta != 0,
		"edges":  g.Edges != 0,
		"a":      g.A != 0,
		"b":      g.B != 0,
		"c":      g.C != 0,
		"gamma":  g.Gamma != 0,
		"path":   g.Path != "",
		"format": g.Format != "",
		"digest": g.Digest != "",
	}
}

// Compile validates the spec and expands its sweep into units. It
// builds no graphs and runs nothing; a non-nil error describes the
// first problem found, phrased for the submitting user.
func (s *Spec) Compile() (*Compiled, error) {
	n := s.Normalized()

	if n.Trials < 1 || n.Trials > MaxTrials {
		return nil, fmt.Errorf("scenario: trials %d outside [1, %d]", n.Trials, MaxTrials)
	}
	if n.Workers < 0 {
		return nil, fmt.Errorf("scenario: workers %d negative (0 = all cores)", n.Workers)
	}
	if n.Shards < 0 {
		return nil, fmt.Errorf("scenario: shards %d negative (0 = all cores, 1 = serial)", n.Shards)
	}
	if n.MaxRounds < 0 {
		return nil, fmt.Errorf("scenario: max_rounds %d negative (0 = simulator default)", n.MaxRounds)
	}
	if n.BeepLoss < 0 || n.BeepLoss >= 1 {
		return nil, fmt.Errorf("scenario: beep_loss %v outside [0, 1)", n.BeepLoss)
	}
	if n.WakeWindow < 0 {
		return nil, fmt.Errorf("scenario: wake_window %d negative (0 = all nodes start awake)", n.WakeWindow)
	}
	if n.Faults != nil && n.Faults.Wake != nil && n.WakeWindow > 0 {
		return nil, fmt.Errorf("scenario: wake_window %d conflicts with the faults block's wake schedule (pick one)", n.WakeWindow)
	}
	// Outages must fit the round budget: a recovery past the cap would
	// be silently truncated, which is exactly the skipped-perturbation
	// failure mode the fault layer exists to rule out.
	maxRounds := n.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	if err := n.Faults.ValidateAgainstRounds(maxRounds); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	engine, err := sim.ParseEngine(n.Engine)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	info, ok := families[n.Graph.Family]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown graph family %q (have %v)", n.Graph.Family, Families())
	}

	// Reject graph fields the family does not read: a stray "radius"
	// on a gnp spec would be ignored by the builder but serialised
	// into the hash, making identical workloads miss each other's
	// cache entries.
	allowed := map[string]bool{}
	for _, f := range info.extra {
		allowed[f] = true
	}
	// Visit the fields in sorted order so a spec with two stray fields
	// always reports the same one first.
	checks := graphFieldChecks(n.Graph)
	fields := make([]string, 0, len(checks))
	for field := range checks {
		fields = append(fields, field)
	}
	sort.Strings(fields)
	for _, field := range fields {
		if checks[field] && !allowed[field] {
			return nil, fmt.Errorf("scenario: graph field %q is not used by family %q", field, n.Graph.Family)
		}
	}
	if n.Graph.N != 0 && !info.usesN {
		return nil, fmt.Errorf("scenario: graph field \"n\" is not used by family %q", n.Graph.Family)
	}
	if n.Graph.P != 0 && !info.usesP {
		return nil, fmt.Errorf("scenario: graph field \"p\" is not used by family %q", n.Graph.Family)
	}
	if n.Graph.Seed != 0 && !info.random {
		return nil, fmt.Errorf("scenario: graph field \"seed\" is not used by deterministic family %q", n.Graph.Family)
	}

	// A file-family scenario's results are a function of the file's
	// bytes, so its content hash must be too: resolve the SHA-256 digest
	// now, before the units capture the GraphSpec and before the
	// canonical form below is serialised. A spec that pre-sets the
	// digest is pinning the content it was written against — a mismatch
	// means the file on disk is not that graph.
	if n.Graph.Family == "file" {
		if n.Graph.Path == "" {
			return nil, fmt.Errorf("scenario: file family needs a graph path")
		}
		digest, err := graph.HashGraphFile(n.Graph.Path)
		if err != nil {
			return nil, fmt.Errorf("scenario: hashing graph file: %w", err)
		}
		if n.Graph.Digest != "" && n.Graph.Digest != digest {
			return nil, fmt.Errorf("scenario: graph file %s has digest %s, but the spec pins %s (file changed since the spec was written?)", n.Graph.Path, digest, n.Graph.Digest)
		}
		n.Graph.Digest = digest
	}

	// The base algorithm is validated even when a sweep's list replaces
	// it (normalisation folds it to the list's head for hashing): a
	// typo should fail the submission, not ride along unnoticed. An
	// empty base is allowed iff the sweep supplies the algorithms.
	if s.Algorithm != "" {
		known := false
		for _, name := range mis.Names() {
			known = known || name == s.Algorithm
		}
		if !known {
			return nil, fmt.Errorf("scenario: unknown algorithm %q (have %v)", s.Algorithm, mis.Names())
		}
	} else if s.Sweep == nil || len(s.Sweep.Algorithms) == 0 {
		return nil, fmt.Errorf("scenario: missing algorithm (have %v)", mis.Names())
	}

	// Sweep axes default to the base spec's single value.
	ns := []int{n.Graph.N}
	ps := []float64{n.Graph.P}
	algos := []string{n.Algorithm}
	if n.Sweep != nil {
		if len(n.Sweep.N) > 0 {
			if !info.usesN {
				return nil, fmt.Errorf("scenario: sweep over n, but family %q is not parameterised by n", n.Graph.Family)
			}
			ns = n.Sweep.N
		}
		if len(n.Sweep.P) > 0 {
			if !info.usesP {
				return nil, fmt.Errorf("scenario: sweep over p, but family %q is not parameterised by p", n.Graph.Family)
			}
			ps = n.Sweep.P
		}
		if len(n.Sweep.Algorithms) > 0 {
			algos = n.Sweep.Algorithms
		}
	}
	total := len(ns) * len(ps) * len(algos)
	if total > MaxUnits {
		return nil, fmt.Errorf("scenario: sweep expands to %d units (max %d)", total, MaxUnits)
	}

	c := &Compiled{Spec: n, Units: make([]*Unit, 0, total), engine: engine}
	index := 0
	for _, algo := range algos {
		spec := mis.Spec{Name: algo}
		if n.Feedback != nil {
			spec.Feedback = mis.FeedbackConfig(*n.Feedback)
		}
		spec.Afek = mis.AfekOriginalConfig{StepsPerLevel: n.AfekStepsPerLevel}
		spec.FixedP = n.FixedP
		factory, bulk, err := mis.NewFactories(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		for _, un := range ns {
			for _, up := range ps {
				if info.usesN && (un <= 0 || un > MaxNodes) {
					return nil, fmt.Errorf("scenario: n %d outside [1, %d]", un, MaxNodes)
				}
				if info.usesP && (up < 0 || up > 1) {
					return nil, fmt.Errorf("scenario: p %v outside [0, 1]", up)
				}
				if err := info.validate(n.Graph, un, up); err != nil {
					return nil, err
				}
				nodes := info.nodes(n.Graph, un)
				if nodes <= 0 || nodes > MaxNodes {
					return nil, fmt.Errorf("scenario: family %q instance has %d nodes (max %d)", n.Graph.Family, nodes, MaxNodes)
				}
				planned, err := admitFootprint(engine, n.Graph.Family, nodes, info.expectedEdges(n.Graph, un, up))
				if err != nil {
					return nil, err
				}
				if err := sim.ValidateCrashes(nodes, n.CrashAtRound); err != nil {
					return nil, fmt.Errorf("scenario: %w", err)
				}
				// Fault specs are validated per unit: wake/outage node
				// ids must be in range for every instance of a sweep,
				// and outages may not contradict the crash schedule.
				if err := n.Faults.Validate(nodes); err != nil {
					return nil, fmt.Errorf("scenario: %w", err)
				}
				if err := n.Faults.ValidateAgainstCrashes(n.CrashAtRound); err != nil {
					return nil, fmt.Errorf("scenario: %w", err)
				}
				c.Units = append(c.Units, &Unit{
					Index:         index,
					Algorithm:     algo,
					N:             un,
					P:             up,
					Nodes:         nodes,
					PlannedEngine: planned,
					graph:         n.Graph,
					info:          info,
					factory:       factory,
					bulk:          bulk,
					spec:          n,
				})
				index++
			}
		}
	}

	// Canonicalise the resolved spec (n carries the file digest), not
	// the raw input: the digest is part of the hash surface.
	canonical, err := n.Canonical()
	if err != nil {
		return nil, err
	}
	c.Canonical = canonical
	c.Hash = hashOf(canonical)
	return c, nil
}

// adjacencyBytes estimates the transient storage every build holds
// beside the graph's final rows: the Builder's edge list, GNP's half
// rows, or CSRBuilder's placement cursors — priced as 24 bytes per
// vertex plus two int32 entries per edge. An instance needs this
// whatever engine runs it.
func adjacencyBytes(nodes int, expEdges float64) float64 {
	return float64(24*float64(nodes)) + float64(8*expEdges)
}

// plannedEngine resolves the engine the compiled plan expects to run:
// the pin's canonical form when the spec names an engine, otherwise the
// shared auto heuristic (sim.ResolveEngineFromCounts) over the
// instance's node count and *expected* edge count — validation must
// not build graphs, and for the admission bound an estimate is exactly
// what is needed.
func plannedEngine(pin sim.Engine, nodes int, expEdges float64) sim.Engine {
	if pin != sim.EngineAuto {
		return pin.Canonical()
	}
	return sim.ResolveEngineFromCounts(nodes, int(math.Ceil(expEdges)))
}

// admitFootprint bounds a unit by the estimated memory footprint of
// the representation its compiled plan will actually use — the build's
// transient storage every engine needs (adjacencyBytes), plus the dense
// matrix for a columnar plan or the graph's CSR rows for a sparse one.
// This is what lets a sparse million-node spec through (its CSR is a
// few dozen MB) while an infeasible dense pin on the same graph still
// fails at submission time with the reason spelled out.
func admitFootprint(pin sim.Engine, family string, nodes int, expEdges float64) (sim.Engine, error) {
	planned := plannedEngine(pin, nodes, expEdges)
	adj := adjacencyBytes(nodes, expEdges)
	rep := float64(graph.CSRBytes(nodes, 0)) + float64(8*expEdges)
	if planned == sim.EngineColumnar {
		rep = float64(graph.MatrixBytes(nodes))
	}
	if total := adj + rep; total > float64(MaxUnitMemory) {
		detail := fmt.Sprintf("with ≈%.3g expected edges, engine %q needs ≈%s for its %s on top of ≈%s of adjacency",
			expEdges, planned, formatBytes(rep), representationName(planned), formatBytes(adj))
		hint := ""
		if pin != sim.EngineAuto && planned == sim.EngineColumnar {
			hint = `; pin "sparse" or use "auto"`
		}
		return planned, fmt.Errorf("scenario: family %q instance (n=%d) exceeds the %s memory bound: %s%s",
			family, nodes, formatBytes(float64(MaxUnitMemory)), detail, hint)
	}
	return planned, nil
}

// representationName names a planned engine's adjacency
// representation for error messages.
func representationName(e sim.Engine) string {
	if e == sim.EngineColumnar {
		return "dense adjacency matrix"
	}
	return "CSR edge array"
}

// formatBytes renders a byte count in binary units for error messages.
func formatBytes(b float64) string {
	switch {
	case b >= float64(int64(1)<<40):
		return fmt.Sprintf("%.1f TiB", b/float64(int64(1)<<40))
	case b >= float64(int64(1)<<30):
		return fmt.Sprintf("%.1f GiB", b/float64(int64(1)<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
