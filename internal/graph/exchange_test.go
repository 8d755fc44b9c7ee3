package graph

import (
	"fmt"
	"testing"

	"beepmis/internal/rng"
)

// rangeExchanger is the execution half of both adjacency
// representations' exchange contract.
type rangeExchanger interface {
	ExchangeRange(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int)
}

// evenBounds cuts [0, words) into exactly parts contiguous ranges,
// range i being [bounds[i], bounds[i+1]); when parts > words some
// ranges are empty.
func evenBounds(words, parts int) []int {
	bounds := make([]int, parts+1)
	for i := range bounds {
		bounds[i] = i * words / parts
	}
	return bounds
}

// randomBounds cuts [0, words) into parts contiguous ranges at random
// cut points, empty ranges included.
func randomBounds(words, parts int, src *rng.Source) []int {
	bounds := make([]int, parts+1)
	bounds[parts] = words
	for i := 1; i < parts; i++ {
		bounds[i] = bounds[i-1] + src.Intn(words-bounds[i-1]+1)
	}
	return bounds
}

// soiled returns a bitset of n bits with every word set, so a range
// call that fails to own its words shows up as stray bits.
func soiled(n int) Bitset {
	b := NewBitset(n)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

// exchangeOver runs plan the way the simulator's round loop does over
// the partition bounds, every range in reverse order: serial plans over
// the full range; Scatter plans by emitter range into pre-soiled
// private buffers (range 0 straight into dst), then merged into dst by
// the same ranges as destination ranges; other plans by destination
// range into dst.
func exchangeOver(x rangeExchanger, plan ExchangePlan, dst, targets, emitters Bitset, bounds []int) {
	if plan.Serial {
		x.ExchangeRange(plan, dst, targets, emitters, 0, len(dst))
		return
	}
	parts := len(bounds) - 1
	if !plan.Scatter {
		for i := parts - 1; i >= 0; i-- {
			x.ExchangeRange(plan, dst, targets, emitters, bounds[i], bounds[i+1])
		}
		return
	}
	bufs := []Bitset{dst}
	for i := 1; i < parts; i++ {
		bufs = append(bufs, soiled(len(dst)<<6))
	}
	for i := parts - 1; i >= 0; i-- {
		x.ExchangeRange(plan, bufs[i], targets, emitters, bounds[i], bounds[i+1])
	}
	for i := parts - 1; i >= 0; i-- {
		MergeRange(dst, bufs[1:], bounds[i], bounds[i+1])
	}
}

// exchangeSharded runs plan as the round loop's pool of `shards`
// workers would, over evenly cut ranges.
func exchangeSharded(x rangeExchanger, plan ExchangePlan, dst, targets, emitters Bitset, shards int) {
	if shards <= 1 {
		shards, plan.Serial = 1, true
	}
	exchangeOver(x, plan, dst, targets, emitters, evenBounds(len(dst), shards))
}

// randomMasks fills emitters by trial (a few, about half, everyone) and
// targets with about 60% of the vertices.
func randomMasks(n, trial int, src *rng.Source) (targets, emitters Bitset) {
	emitters = NewBitset(n)
	targets = NewBitset(n)
	if n == 0 {
		return targets, emitters
	}
	switch trial % 3 {
	case 0:
		for i := 0; i < 3; i++ {
			emitters.Set(src.Intn(n))
		}
	case 1:
		for v := 0; v < n; v++ {
			if src.Bernoulli(0.5) {
				emitters.Set(v)
			}
		}
	case 2:
		emitters.Fill(n)
	}
	for v := 0; v < n; v++ {
		if src.Bernoulli(0.6) {
			targets.Set(v)
		}
	}
	return targets, emitters
}

// TestExchangeRangePartitionMatchesSerial is the contract behind the
// simulator's pooled destination-range exchanges: for every plan that
// partitions the destination — every matrix plan, and the rows' pull —
// executing ExchangeRange over an arbitrary partition of the word space
// (visited in reverse, the harshest legal order) must agree with one
// full-range call at every bit the targets mask covers, and everywhere
// for push plans. The rows' push partitions emitters instead;
// TestScatterPartitionMatchesSerial covers it.
func TestExchangeRangePartitionMatchesSerial(t *testing.T) {
	for name, g := range buildCSRGraphs() {
		n := g.N()
		words := bitsetWords(n)
		src := rng.New(11)
		mat := g.Matrix()
		for trial := 0; trial < 6; trial++ {
			targets, emitters := randomMasks(n, trial, src)
			plans := []struct {
				rep  string
				x    rangeExchanger
				plan ExchangePlan
			}{
				{"matrix", mat, mat.PlanExchange(targets, emitters, 4)},
				{"csr-pull", g, ExchangePlan{Pull: true}},
			}
			for _, tc := range plans {
				want := NewBitset(n)
				tc.x.ExchangeRange(tc.plan, want, targets, emitters, 0, words)
				for _, parts := range []int{2, 3, 7, 64} {
					got := soiled(n)
					plan := tc.plan
					plan.Serial = false
					exchangeOver(tc.x, plan, got, targets, emitters, evenBounds(words, parts))
					for i := range want {
						gw, ww := got[i], want[i]
						if plan.Pull {
							gw &= targets[i]
							ww &= targets[i]
						}
						if gw != ww {
							t.Fatalf("%s/%s trial %d parts %d (plan %+v): word %d = %x, want %x",
								name, tc.rep, trial, parts, tc.plan, i, gw, ww)
						}
					}
				}
			}
		}
	}
}

// TestScatterPartitionMatchesSerial is the contract behind the sparse
// engine's fanned push: scattering the emitters of any partition of
// the emitter words into pre-soiled private buffers (the first range
// into the pre-soiled dst itself), every range visited in reverse, and
// then merging those buffers into dst over any destination partition,
// must equal one serial full-range push everywhere. The graphs cover
// vertex counts that are not multiples of 64, a star whose hub row
// spans every range, isolated vertices, and partitions with more
// ranges than words (empty ranges must still clear their buffers).
func TestScatterPartitionMatchesSerial(t *testing.T) {
	graphs := buildCSRGraphs()
	graphs["star-1000"] = Star(1000)
	graphs["gnp-isolated"] = GNP(700, 0.001, rng.New(4))
	push := ExchangePlan{Scatter: true}
	for name, g := range graphs {
		n := g.N()
		words := bitsetWords(n)
		src := rng.New(13)
		for trial := 0; trial < 6; trial++ {
			_, emitters := randomMasks(n, trial, src)
			want := soiled(n)
			g.ExchangeRange(push, want, nil, emitters, 0, words)
			for _, parts := range []int{1, 2, 3, 7, words + 3} {
				for _, cut := range []string{"even", "random"} {
					bounds := evenBounds(words, parts)
					if cut == "random" {
						bounds = randomBounds(words, parts, src)
					}
					got := soiled(n)
					bufs := []Bitset{got}
					for i := 1; i < parts; i++ {
						bufs = append(bufs, soiled(n))
					}
					for i := parts - 1; i >= 0; i-- {
						g.ExchangeRange(push, bufs[i], nil, emitters, bounds[i], bounds[i+1])
					}
					merge := randomBounds(words, 1+src.Intn(parts+1), src)
					for i := len(merge) - 2; i >= 0; i-- {
						MergeRange(got, bufs[1:], merge[i], merge[i+1])
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s trial %d parts %d (%s cuts %v, merge %v): word %d = %x, want %x",
								name, trial, parts, cut, bounds, merge, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestCSRPlanExchangeDirections pins the planner's decision on the
// regimes it exists for: a crowded exchange (everyone emitting, sparse
// graph) must pull, a sparse-frontier exchange (a handful of emitters)
// must push, and the empty exchange must not pull.
func TestCSRPlanExchangeDirections(t *testing.T) {
	g := GNP(20000, 0.0005, rng.New(3)) // avg degree ~10
	c := g
	n := g.N()
	everyone := NewBitset(n)
	everyone.Fill(n)
	few := NewBitset(n)
	few.Set(1)
	few.Set(4000)
	none := NewBitset(n)
	cases := []struct {
		name              string
		targets, emitters Bitset
		wantPull          bool
	}{
		{"crowded", everyone, everyone, true},
		{"sparse-frontier", everyone, few, false},
		{"no-emitters", everyone, none, false},
		{"no-targets", none, everyone, true}, // zero listeners: pull costs nothing
	}
	for _, tc := range cases {
		plan := c.PlanExchange(tc.targets, tc.emitters, 4)
		if plan.Pull != tc.wantPull || plan.Scatter == plan.Pull {
			t.Fatalf("%s: plan %+v, want Pull=%v and Scatter=%v", tc.name, plan, tc.wantPull, !tc.wantPull)
		}
	}
}

// TestPlanExchangeSerialThresholds pins that tiny workloads never fan
// out (Serial plans) and big ones do when shards allow, for both
// representations, and that a rows push whose degree sum cannot cover
// the per-shard buffers it would zero and merge stays serial.
func TestPlanExchangeSerialThresholds(t *testing.T) {
	dense := GNP(3000, 0.3, rng.New(5))
	n := dense.N()
	everyone := NewBitset(n)
	everyone.Fill(n)
	few := NewBitset(n)
	few.Set(7)
	none := NewBitset(n)
	// 20 of 2¹⁸ vertices on a ring of 2¹⁸ emitting 2 arcs each: far
	// below both fan-out floors. 5000 emitters on the same ring give
	// 10⁴ arcs — still below the 2¹⁴-entry floor, so serial; 2¹⁵
	// emitters give 2¹⁶ arcs, over the floor and over 4 shards' 4096
	// words each, so fanned — but at 64 shards the 2¹⁸ words to zero
	// and merge outweigh them and the push stays serial.
	ring := Cycle(1 << 18)
	ringEmitters := func(k int) Bitset {
		b := NewBitset(ring.N())
		for v := 0; v < k; v++ {
			b.Set(v * 7)
		}
		return b
	}
	ringTargets := NewBitset(ring.N())
	ringTargets.Fill(ring.N())
	for _, tc := range []struct {
		rep        string
		plan       func(targets, emitters Bitset, shards int) ExchangePlan
		targets    Bitset
		emitters   Bitset
		shards     int
		wantSerial bool
	}{
		{"matrix", dense.Matrix().PlanExchange, everyone, everyone, 4, false},
		{"matrix", dense.Matrix().PlanExchange, everyone, few, 4, true},
		{"matrix", dense.Matrix().PlanExchange, everyone, everyone, 1, true},
		{"csr", dense.PlanExchange, everyone, few, 4, true},
		{"csr", dense.PlanExchange, everyone, few, 1, true},
		{"csr-ring", ring.PlanExchange, ringTargets, ringEmitters(20), 4, true},
		{"csr-ring", ring.PlanExchange, ringTargets, ringEmitters(5000), 4, true},
		{"csr-ring", ring.PlanExchange, ringTargets, ringEmitters(1 << 15), 4, false},
		{"csr-ring", ring.PlanExchange, ringTargets, ringEmitters(1 << 15), 64, true},
		{"csr-ring", ring.PlanExchange, ringTargets, ringEmitters(1 << 15), 1, true},
		{"csr-ring", ring.PlanExchange, ringTargets, none, 4, true},
	} {
		name := fmt.Sprintf("%s/emitters=%d/shards=%d", tc.rep, tc.emitters.Count(), tc.shards)
		plan := tc.plan(tc.targets, tc.emitters, tc.shards)
		if plan.Serial != tc.wantSerial {
			t.Fatalf("%s: plan %+v, want Serial=%v", name, plan, tc.wantSerial)
		}
		if tc.rep == "csr-ring" && plan.Pull {
			t.Fatalf("%s: plan %+v, want a push", name, plan)
		}
	}
}
