package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"beepmis/internal/fault"
	"beepmis/internal/graph"
	"beepmis/internal/mis"
	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/sim"
)

// benchRecord is one engine measurement of the -bench mode, emitted as
// JSON with -json so the benchmark trajectory can be tracked across
// revisions by machines rather than by reading prose. The goversion /
// gomaxprocs / timestamp fields identify the toolchain, the core budget
// and the moment of the measurement, so trajectory files collected on
// different machines (or months apart) stay comparable. AutoEngine is
// the engine the auto heuristic resolves to on this workload, so the
// heuristic's choice is observable in the records.
type benchRecord struct {
	Engine     string  `json:"engine"`
	AutoEngine string  `json:"auto_engine"`
	Shards     int     `json:"shards"`
	N          int     `json:"n"`
	P          float64 `json:"p"`
	// Graph labels non-default workloads from -graph / -graphfile (e.g.
	// "rmat:n=1048576,edges=8388608"); empty for the default G(n,p)
	// bench, so records and regression-gate keys from baselines that
	// predate the field still match exactly.
	Graph string `json:"graph,omitempty"`
	// M is the workload's final (deduplicated) edge count; BuildNs and
	// EdgesPerSec time its construction — the graph builders' own
	// trajectory, measured once per bench invocation and stamped on
	// every engine's record. GraphDigest is the hex SHA-256 of a
	// -graphfile workload's bytes.
	M           int64   `json:"m,omitempty"`
	BuildNs     int64   `json:"build_ns,omitempty"`
	EdgesPerSec float64 `json:"edges_per_sec,omitempty"`
	GraphDigest string  `json:"graph_digest,omitempty"`
	// Faults is the normalised fault-model JSON the runs executed under
	// (absent for the clean baseline), so noisy and clean trajectory
	// records are distinguishable without out-of-band context.
	Faults     *fault.Spec `json:"faults,omitempty"`
	Runs       int         `json:"runs"`
	Rounds     float64     `json:"rounds"`
	Beeps      float64     `json:"beeps"`
	NsPerRound float64     `json:"ns_per_round"`
	NsPerRun   float64     `json:"ns_per_run"`
	// PhaseNs breaks ns_per_run down by round phase (faults,
	// eligible_draw, beep_tally, propagate, join, observe): total
	// nanoseconds across all runs, from the same per-phase clock the
	// /metrics exposition uses. omitempty keeps baselines that predate
	// the field byte-compatible, and the regression-gate key ignores it.
	PhaseNs    map[string]int64 `json:"phase_ns,omitempty"`
	HeapMB     float64          `json:"heap_mb"`
	GoVersion  string           `json:"goversion"`
	GoMaxProcs int              `json:"gomaxprocs"`
	// NumCPU is the machine's core count (GoMaxProcs is the budget the
	// process was granted; NumCPU is what the hardware offers) — stamped
	// so trajectory records from differently-sized machines are
	// distinguishable.
	NumCPU    int    `json:"numcpu,omitempty"`
	Timestamp string `json:"timestamp"` // ISO-8601 (RFC 3339), UTC
}

// collectEngineBench times whole simulation runs of the feedback
// algorithm on G(n, p) per engine and returns one record per
// measurement. With engine == EngineAuto every *applicable* engine is
// measured — the columnar engine only when its matrix fits the memory
// budget, so a million-node bench measures exactly the engine that
// could really run it — at the requested shard bound; a pin measures
// just the engine it runs. Results of all engines are seed-identical —
// the benchmark varies only the wall clock, which is the point.
func collectEngineBench(wl *benchWorkload, p float64, runs int, seed uint64, engine sim.Engine, shards int, faults *fault.Spec) ([]benchRecord, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("bench needs positive -benchruns (got %d)", runs)
	}
	g := wl.g
	n := g.N()
	if wl.label != "" {
		p = 0 // the workload label identifies non-G(n,p) records
	}
	faults = faults.Normalized()
	if err := faults.Validate(n); err != nil {
		return nil, err
	}
	factory, bulk, err := mis.NewFactories(mis.Spec{Name: mis.NameFeedback})
	if err != nil {
		return nil, err
	}
	matrixFits := graph.MatrixBytes(n) <= sim.DefaultMemoryBudget
	var engines []sim.Engine
	if matrixFits {
		engines = append(engines, sim.EngineColumnar)
	}
	engines = append(engines, sim.EngineSparse)
	if engine != sim.EngineAuto {
		engine = engine.Canonical()
		if engine == sim.EngineColumnar && !matrixFits {
			// Stderr, not the record stream: with -json, stdout carries the
			// machine-readable records and must stay parseable.
			fmt.Fprintf(os.Stderr, "misbench: warning: engine %v needs %d bytes of adjacency matrix (budget %d); proceeding because it was pinned\n",
				engine, graph.MatrixBytes(n), sim.DefaultMemoryBudget)
		}
		engines = []sim.Engine{engine}
	}
	autoEngine := sim.ResolveEngine(g, sim.Options{}).String()
	// Build (and cache) the columnar engine's packed matrix outside the
	// timer; the sparse engine reads the graph's rows as built.
	for _, e := range engines {
		if e == sim.EngineColumnar {
			g.Matrix()
		}
	}
	// Records carry the shard count that actually applied: the resolved
	// bound (-shards 0 means one shard per core — sim.EffectiveShards is
	// the single source of truth) — so trajectory records compare like
	// for like, and the regression gate's (engine, n, p, shards, faults)
	// key never aliases two different configurations.
	effectiveShards := sim.EffectiveShards(shards)
	records := make([]benchRecord, 0, len(engines))
	for _, e := range engines {
		// A fresh bundle per engine so phase_ns attributes each record's
		// own runs. The per-round clock costs a handful of monotonic
		// clock reads against thousands of ns of simulation work, and the
		// recording path never allocates or touches rng — results and
		// steady-state allocation behaviour are identical with it on.
		metrics := &obs.EngineMetrics{}
		opts := sim.Options{Engine: e, Bulk: bulk, Shards: shards, Faults: faults, Metrics: metrics}
		var rounds, beeps float64
		start := time.Now()
		for run := 0; run < runs; run++ {
			res, err := sim.Run(g, factory, rng.New(seed+uint64(run)), opts)
			if err != nil {
				return nil, fmt.Errorf("bench engine %v run %d: %w", e, run, err)
			}
			rounds += float64(res.Rounds)
			beeps += float64(res.TotalBeeps)
		}
		elapsed := time.Since(start)
		// Collect first so HeapAlloc is live heap, not run garbage. The
		// number is whole-process (graph plus every prebuilt cached
		// representation), so it is most meaningful where enumeration
		// excluded the dense engines — the large-sparse workloads whose
		// memory ceiling the records exist to witness.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		edgesPerSec := 0.0
		if wl.buildNs > 0 {
			edgesPerSec = float64(wl.edges) / (float64(wl.buildNs) / 1e9)
		}
		records = append(records, benchRecord{
			Engine:      e.String(),
			AutoEngine:  autoEngine,
			Shards:      effectiveShards,
			N:           n,
			P:           p,
			Graph:       wl.label,
			M:           wl.edges,
			BuildNs:     wl.buildNs,
			EdgesPerSec: edgesPerSec,
			GraphDigest: wl.digest,
			Faults:      faults,
			Runs:        runs,
			Rounds:      rounds / float64(runs),
			Beeps:       beeps / float64(runs),
			NsPerRound:  float64(elapsed.Nanoseconds()) / rounds,
			NsPerRun:    float64(elapsed.Nanoseconds()) / float64(runs),
			PhaseNs:     metrics.PhaseTotals(),
			HeapMB:      float64(ms.HeapAlloc) / (1 << 20),
			GoVersion:   runtime.Version(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Timestamp:   time.Now().UTC().Format(time.RFC3339),
		})
	}
	return records, nil
}

// writeBenchRecords renders collected records to w: one JSON record per
// line with asJSON (the across-PR trajectory format), a human-readable
// line per engine otherwise.
func writeBenchRecords(w io.Writer, records []benchRecord, asJSON bool) error {
	enc := json.NewEncoder(w)
	for _, rec := range records {
		if asJSON {
			if err := enc.Encode(rec); err != nil {
				return err
			}
			continue
		}
		noisy := ""
		if rec.Faults != nil {
			// The full normalised spec, exactly as the JSON records stamp
			// it — wake schedules and outages included, not just noise.
			if b, err := json.Marshal(rec.Faults); err == nil {
				noisy = fmt.Sprintf(" [faults %s]", b)
			}
		}
		workload := fmt.Sprintf("G(%d,%g)", rec.N, rec.P)
		if rec.Graph != "" {
			workload = fmt.Sprintf("%s (n=%d, m=%d)", rec.Graph, rec.N, rec.M)
		}
		fmt.Fprintf(w, "%-9s shards=%-2d %s: %.1f rounds/run, %.0f beeps/run, %.0f ns/round, %.2f ms/run, heap %.0f MB (auto→%s)%s\n",
			rec.Engine, rec.Shards, workload, rec.Rounds, rec.Beeps, rec.NsPerRound, rec.NsPerRun/1e6, rec.HeapMB, rec.AutoEngine, noisy)
	}
	return nil
}
