package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"beepmis/internal/mis"
	"beepmis/internal/rng"
)

// class is one kind of request: a committed golden spec that the
// benchmark copies with fresh seeds. Metrics that vary by class carry
// its name as a suffix.
type class struct {
	name   string
	golden string // path relative to the repository root
	// independent: no channel faults, so the report must show
	// independence in every round. Under loss two neighbours can join
	// in one round.
	independent bool
	// verified: no channel faults and no crashes, so the final set must
	// pass VerifyMIS. A crashed node stays undominated by design, which
	// only maximal_at_termination exempts.
	verified bool
}

var (
	classTiny  = class{"tiny", "scenarios/load-tiny.json", true, true}
	classSweep = class{"sweep", "scenarios/sweep-algorithms.json", true, true}
	classNoisy = class{"noisy", "scenarios/noisy-async.json", false, false}
	classFile  = class{"file", "scenarios/file-ingest.json", true, true}
	classCrash = class{"crash", "scenarios/crash-wake.json", true, false}
	classQuick = class{"quick", "scenarios/quickstart.json", true, true}
)

// specClasses lists every spec class in the order reports print them.
var specClasses = []class{classTiny, classSweep, classNoisy, classFile, classCrash, classQuick}

// missBlock is svc-miss's mix: every block of 20 requests holds 13
// load-tiny, 5 sweep and 2 noisy-async copies (65/25/10%) in a
// seed-shuffled order. Fixed counts per block, rather than independent
// draws, keep a run's class mix, and so its p50 and p95, the same from
// seed to seed: p50 falls inside the tiny class, p95 inside the sweep.
var missBlock = []struct {
	c     class
	count int
}{{classTiny, 13}, {classSweep, 5}, {classNoisy, 2}}

// hitWorkingSet is svc-hit's working-set size. It stays far below
// misd's 1024-job retention bound, so no cached result is evicted.
const hitWorkingSet = 64

// Fixed stream ids for schedule derivation, so adding a stream never
// reshuffles the others.
const (
	streamMixOrder = iota + 1
	streamSpecSeeds
	streamWarmSeeds
	streamHitPick
	streamSolveSeeds
	streamGraphSeed
)

// request is one precomputed spec submission.
type request struct {
	class class
	body  []byte
}

// goldens reads each class's committed spec from the repository root;
// the sweep golden loses its afek units (see withoutAfek).
func goldens(root string, classes []class) (map[string][]byte, error) {
	out := make(map[string][]byte, len(classes))
	for _, c := range classes {
		b, err := os.ReadFile(filepath.Join(root, c.golden))
		if err != nil {
			return nil, fmt.Errorf("read golden %s: %w", c.name, err)
		}
		if c == classSweep {
			if b, err = withoutAfek(b); err != nil {
				return nil, fmt.Errorf("golden %s: %w", c.name, err)
			}
		}
		out[c.name] = b
	}
	return out, nil
}

// withoutAfek drops afek from a sweep's algorithm axis. That schedule
// raises every node's beep probability to 1/2 and holds it there, so on
// a dense G(n, 1/2) a trial in which no node joins during the ramp never
// ends, and misd fails the job at the round limit: one fresh-seed copy
// of sweep-algorithms in about 1,600 did (seed 1455082022531897818,
// afek at n=100, trial 5). A workload must not fail, so the copies
// sweep feedback and globalsweep only.
func withoutAfek(doc []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, err
	}
	sweep, _ := m["sweep"].(map[string]any)
	algs, _ := sweep["algorithm"].([]any)
	kept := make([]any, 0, len(algs))
	for _, a := range algs {
		if a != mis.NameAfek {
			kept = append(kept, a)
		}
	}
	if len(kept) == len(algs) {
		return nil, errors.New("no afek on the sweep's algorithm axis")
	}
	sweep["algorithm"] = kept
	return json.Marshal(m)
}

// freshCopy rewrites doc's top-level "seed" and runs its trials on one
// worker. Seeds are forced non-zero: the scenario compiler normalises 0
// to 1, which would make two "fresh" copies collide in misd's cache.
// One trial worker keeps a job on one core of the two-core box it was
// sized on: a job whose trials spread over every core slowed by a third
// whenever a neighbour loaded the shared host, a one-worker job by a
// tenth. Workers is a performance knob, so the report is unchanged.
func freshCopy(doc []byte, seed uint64) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	m["seed"] = seed
	m["workers"] = 1
	return json.Marshal(m)
}

// missSchedule precomputes n svc-miss requests from seed: block-shuffled
// classes, each a golden with a fresh 64-bit seed.
func missSchedule(gold map[string][]byte, seed uint64, n int) ([]request, error) {
	src := rng.New(seed)
	order, seeds := src.Stream(streamMixOrder), src.Stream(streamSpecSeeds)
	var block []class
	for _, b := range missBlock {
		for i := 0; i < b.count; i++ {
			block = append(block, b.c)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		perm := order.Perm(len(block))
		for _, k := range perm {
			if len(out) == n {
				break
			}
			c := block[k]
			body, err := freshCopy(gold[c.name], seeds.Uint64())
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", c.name, err)
			}
			out = append(out, request{class: c, body: body})
		}
	}
	return out, nil
}

// warmupRequests is one fresh-seed copy of each class, from a stream
// the timed schedule never uses, so a warm-up never pre-fills the cache
// for a timed miss.
func warmupRequests(gold map[string][]byte, seed uint64, classes []class) ([]request, error) {
	seeds := rng.New(seed).Stream(streamWarmSeeds)
	out := make([]request, 0, len(classes))
	for _, c := range classes {
		body, err := freshCopy(gold[c.name], seeds.Uint64())
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", c.name, err)
		}
		out = append(out, request{class: c, body: body})
	}
	return out, nil
}

// hitSet precomputes svc-hit's working set: one in eight specs is a
// file-ingest copy, the rest rotate through noisy-async, crash-wake and
// quickstart, all with fresh seeds.
func hitSet(gold map[string][]byte, seed uint64) ([]request, error) {
	seeds := rng.New(seed).Stream(streamSpecSeeds)
	rest := []class{classNoisy, classCrash, classQuick}
	out := make([]request, 0, hitWorkingSet)
	for i := 0; i < hitWorkingSet; i++ {
		c := classFile
		if i%8 != 0 {
			c = rest[(i-1-i/8)%len(rest)]
		}
		body, err := freshCopy(gold[c.name], seeds.Uint64())
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w", c.name, err)
		}
		out = append(out, request{class: c, body: body})
	}
	return out, nil
}

// hitSchedule precomputes n working-set indices: consecutive random
// permutations of the set, so every block of 64 requests touches every
// spec once and the class mix is exact.
func hitSchedule(seed uint64, n int) []uint8 {
	pick := rng.New(seed).Stream(streamHitPick)
	out := make([]uint8, 0, n)
	for len(out) < n {
		for _, k := range pick.Perm(hitWorkingSet) {
			if len(out) == n {
				break
			}
			out = append(out, uint8(k))
		}
	}
	return out
}

// solveSeeds precomputes solve-sparse's graph seed, its warm-up Solve
// seed, and n timed Solve seeds.
func solveSeeds(seed uint64, n int) (graphSeed, warmSeed uint64, seeds []uint64) {
	src := rng.New(seed)
	s := src.Stream(streamSolveSeeds)
	seeds = make([]uint64, n)
	for i := range seeds {
		seeds[i] = s.Uint64()
	}
	return src.Stream(streamGraphSeed).Uint64(), src.Stream(streamWarmSeeds).Uint64(), seeds
}
