package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"beepmis/internal/mis"
	"beepmis/internal/scenario"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = ".."

func loadGoldens(t *testing.T) map[string][]byte {
	t.Helper()
	gold, err := goldens(repoRoot, specClasses)
	if err != nil {
		t.Fatal(err)
	}
	return gold
}

func specSeed(t *testing.T, body []byte) uint64 {
	t.Helper()
	var s struct {
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	return s.Seed
}

func TestMissScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	gold := loadGoldens(t)
	a, err := missSchedule(gold, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := missSchedule(gold, 7, 200)
	c, _ := missSchedule(gold, 8, 200)
	same := true
	for i := range a {
		if a[i].class != b[i].class || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("entry %d differs between two schedules of seed 7", i)
		}
		same = same && bytes.Equal(a[i].body, c[i].body)
	}
	if same {
		t.Error("seeds 7 and 8 gave the same schedule")
	}

	// Every block of 20 holds exactly 13 tiny, 5 sweep and 2 noisy.
	for start := 0; start < len(a); start += 20 {
		counts := make(map[string]int)
		for _, r := range a[start : start+20] {
			counts[r.class.name]++
		}
		if counts["tiny"] != 13 || counts["sweep"] != 5 || counts["noisy"] != 2 {
			t.Errorf("block at %d has mix %v, want tiny 13 sweep 5 noisy 2", start, counts)
		}
	}

	// Every request is a distinct miss: seeds differ from each other, from
	// the goldens' own and from the warm-ups', and the spec still compiles
	// to the golden's shape.
	seen := make(map[uint64]bool)
	for _, c := range specClasses {
		seen[specSeed(t, gold[c.name])] = true
	}
	warm, err := warmupRequests(gold, 7, []class{classTiny, classSweep, classNoisy})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(warm, a...) {
		s := specSeed(t, r.body)
		if seen[s] {
			t.Fatalf("seed %d repeats, so a request would hit the cache", s)
		}
		seen[s] = true
	}
	for _, r := range a[:20] {
		got, err := scenario.ParseCompiledBytes(r.body)
		if err != nil {
			t.Fatalf("%s copy does not compile: %v", r.class.name, err)
		}
		want, _ := scenario.ParseCompiledBytes(gold[r.class.name])
		if len(got.Units) != len(want.Units) || got.Spec.Trials != want.Spec.Trials || got.Hash == want.Hash {
			t.Errorf("%s copy: %d units %d trials hash %s; golden %d units %d trials hash %s",
				r.class.name, len(got.Units), got.Spec.Trials, got.Hash, len(want.Units), want.Spec.Trials, want.Hash)
		}
		if got.Spec.Workers != 1 {
			t.Errorf("%s copy runs its trials on %d workers, want 1", r.class.name, got.Spec.Workers)
		}
		for _, u := range got.Units {
			if u.Algorithm == mis.NameAfek {
				t.Errorf("%s copy still sweeps afek", r.class.name)
			}
		}
	}
}

func TestHitWorkingSetAndScheduleShares(t *testing.T) {
	gold := loadGoldens(t)
	set, err := hitSet(gold, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := hitSet(gold, 3)
	counts := make(map[string]int)
	for i, r := range set {
		counts[r.class.name]++
		if !bytes.Equal(r.body, again[i].body) {
			t.Fatalf("working-set entry %d differs between two sets of seed 3", i)
		}
	}
	if len(set) != hitWorkingSet || counts["file"] != 8 || counts["noisy"]+counts["crash"]+counts["quick"] != 56 ||
		min(counts["noisy"], counts["crash"], counts["quick"]) < 18 {
		t.Errorf("working set of %d has mix %v, want 64 with 8 file and the rest spread over noisy, crash, quick", len(set), counts)
	}

	sched := hitSchedule(3, 3*hitWorkingSet+5)
	if !slices.Equal(sched, hitSchedule(3, 3*hitWorkingSet+5)) {
		t.Error("hit schedule differs between two runs of seed 3")
	}
	if slices.Equal(sched, hitSchedule(4, 3*hitWorkingSet+5)) {
		t.Error("seeds 3 and 4 gave the same hit schedule")
	}
	for start := 0; start+hitWorkingSet <= len(sched); start += hitWorkingSet {
		block := slices.Clone(sched[start : start+hitWorkingSet])
		slices.Sort(block)
		for i, k := range block {
			if int(k) != i {
				t.Fatalf("block at %d is not a permutation of the working set", start)
			}
		}
	}
}

func TestSolveSeedsArePureFunctionsOfTheSeed(t *testing.T) {
	g1, w1, s1 := solveSeeds(5, 100)
	g2, w2, s2 := solveSeeds(5, 100)
	g3, _, s3 := solveSeeds(6, 100)
	if g1 != g2 || w1 != w2 || !slices.Equal(s1, s2) {
		t.Error("solve seeds differ between two runs of seed 5")
	}
	if g1 == g3 || slices.Equal(s1, s3) {
		t.Error("seeds 5 and 6 gave the same solve inputs")
	}
}
