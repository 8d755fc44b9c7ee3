package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchKey identifies one benchmark configuration across revisions:
// the workload (n, p, faults) and how it ran (engine, shards). It is
// deliberately machine-light — gomaxprocs, goversion and timestamps
// are NOT part of the key, so a baseline recorded on one core budget
// still matches a current run on another; the tolerance absorbs what
// the machine difference is worth. Faults is the spec's canonical
// JSON ("" for the clean baseline), so two spellings of the same
// normalised fault model key identically.
type benchKey struct {
	Engine string
	N      int
	P      float64
	Shards int
	Faults string
	// Graph is the -graph workload label; "" for the default
	// G(n,p) bench, so baselines recorded before the field existed still
	// key identically.
	Graph string
}

func (k benchKey) String() string {
	s := fmt.Sprintf("%s shards=%d G(%d,%g)", k.Engine, k.Shards, k.N, k.P)
	if k.Graph != "" {
		s = fmt.Sprintf("%s shards=%d %s", k.Engine, k.Shards, k.Graph)
	}
	if k.Faults != "" {
		s += " faults=" + k.Faults
	}
	return s
}

// keyOf computes a record's comparison key. Records always carry
// Normalized fault specs (collectEngineBench normalises before
// running), so marshalling is canonical.
func keyOf(r benchRecord) benchKey {
	k := benchKey{Engine: r.Engine, N: r.N, P: r.P, Shards: r.Shards, Graph: r.Graph}
	if f := r.Faults.Normalized(); f != nil {
		if b, err := json.Marshal(f); err == nil {
			k.Faults = string(b)
		}
	}
	return k
}

// benchDiffEntry is one key's verdict in the machine-readable diff.
// Status is "ok" (within tolerance), "regression" (current ns_per_round
// more than tolerance above baseline), or "missing_baseline" (no
// baseline record has this key — a new configuration, reported but
// never fatal, so growing the bench grid does not break the gate).
type benchDiffEntry struct {
	Key            string  `json:"key"`
	Engine         string  `json:"engine"`
	N              int     `json:"n"`
	P              float64 `json:"p"`
	Shards         int     `json:"shards"`
	Faults         string  `json:"faults,omitempty"`
	Graph          string  `json:"graph,omitempty"`
	Status         string  `json:"status"`
	BaseNsPerRound float64 `json:"base_ns_per_round,omitempty"`
	CurNsPerRound  float64 `json:"cur_ns_per_round"`
	// Ratio is cur/base (0 when there is no baseline); a regression is
	// exactly Ratio > 1 + tolerance.
	Ratio float64 `json:"ratio,omitempty"`
}

// benchDiff is the -bench -compare verdict: every current record's
// entry plus the counts the exit status is derived from.
type benchDiff struct {
	Baseline    string           `json:"baseline"`
	Tolerance   float64          `json:"tolerance"`
	Regressions int              `json:"regressions"`
	Missing     int              `json:"missing_baseline"`
	Entries     []benchDiffEntry `json:"entries"`
}

// readBenchRecords loads a committed trajectory file — a top-level JSON
// array of bench records, the format scripts/bench.sh commits as
// BENCH_pr*.json.
func readBenchRecords(path string) ([]benchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bench baseline: %w", err)
	}
	var records []benchRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("parse bench baseline %s: %w", path, err)
	}
	return records, nil
}

// compareBenchRecords diffs current measurements against a baseline
// set, matching records by (engine, n, p, shards, faults) key. When
// the baseline holds several records for one key (re-runs across
// bench.sh stages), the fastest is the baseline — the minimum is the
// least noise-inflated estimate of what the code can do, so the gate
// never relaxes because a baseline run was itself slow. A current
// record regresses iff cur > base·(1+tolerance), strictly: exactly
// tolerance is a pass.
func compareBenchRecords(baseline, current []benchRecord, tolerance float64) benchDiff {
	best := make(map[benchKey]float64)
	for _, r := range baseline {
		k := keyOf(r)
		if b, ok := best[k]; !ok || r.NsPerRound < b {
			best[k] = r.NsPerRound
		}
	}
	diff := benchDiff{Tolerance: tolerance}
	for _, r := range current {
		k := keyOf(r)
		e := benchDiffEntry{
			Key:           k.String(),
			Engine:        k.Engine,
			N:             k.N,
			P:             k.P,
			Shards:        k.Shards,
			Faults:        k.Faults,
			Graph:         k.Graph,
			CurNsPerRound: r.NsPerRound,
		}
		base, ok := best[k]
		switch {
		case !ok:
			e.Status = "missing_baseline"
			diff.Missing++
		default:
			e.BaseNsPerRound = base
			if base > 0 {
				e.Ratio = r.NsPerRound / base
			}
			if r.NsPerRound > base*(1+tolerance) {
				e.Status = "regression"
				diff.Regressions++
			} else {
				e.Status = "ok"
			}
		}
		diff.Entries = append(diff.Entries, e)
	}
	// Regressions first, then misses, then passes — the lines a human
	// (or a CI log reader) needs lead the diff.
	rank := map[string]int{"regression": 0, "missing_baseline": 1, "ok": 2}
	sort.SliceStable(diff.Entries, func(i, j int) bool {
		return rank[diff.Entries[i].Status] < rank[diff.Entries[j].Status]
	})
	return diff
}

// runBenchCompare gates current bench records against a committed
// baseline file: it always writes the machine-readable diff (indented
// JSON) to w, then fails iff any record regressed beyond tolerance.
// Missing-baseline configurations never fail the gate.
func runBenchCompare(w io.Writer, current []benchRecord, baselinePath string, tolerance float64) error {
	baseline, err := readBenchRecords(baselinePath)
	if err != nil {
		return err
	}
	diff := compareBenchRecords(baseline, current, tolerance)
	diff.Baseline = baselinePath
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(diff); err != nil {
		return err
	}
	if diff.Regressions > 0 {
		return fmt.Errorf("bench regression: %d of %d records exceed baseline %s by more than %.0f%%",
			diff.Regressions, len(diff.Entries), baselinePath, 100*tolerance)
	}
	return nil
}
