package graph

import (
	"fmt"
	"testing"

	"beepmis/internal/rng"
)

// exchangeReps pairs each adjacency representation of a graph with its
// planner, so the partition test drives both through the same contract.
type exchangeRep struct {
	name string
	plan func(targets, emitters Bitset, shards int) ExchangePlan
	exec func(p ExchangePlan, dst, targets, emitters Bitset, loWord, hiWord int)
}

func repsOf(g *Graph) []exchangeRep {
	mat := g.Matrix()
	c := g
	return []exchangeRep{
		{"matrix", mat.PlanExchange, mat.ExchangeRange},
		{"csr", c.PlanExchange, c.ExchangeRange},
	}
}

// TestExchangeRangePartitionMatchesSerial is the contract behind the
// simulator's pooled exchanges: for any plan the representation
// produces — push or pull, at any requested shard count — executing
// ExchangeRange over an arbitrary partition of the word space (visited
// in reverse, the harshest legal order) must agree with one full-range
// call at every bit the targets mask covers, and everywhere for push
// plans. This is what lets a persistent worker pool replace the ad-hoc
// goroutines of PropagateToTargets without re-deriving correctness per
// representation.
func TestExchangeRangePartitionMatchesSerial(t *testing.T) {
	for name, g := range buildCSRGraphs() {
		n := g.N()
		words := (n + 63) / 64
		src := rng.New(11)
		for _, rep := range repsOf(g) {
			for trial := 0; trial < 6; trial++ {
				emitters := NewBitset(n)
				targets := NewBitset(n)
				if n > 0 {
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
				}
				for _, shards := range []int{1, 4} {
					plan := rep.plan(targets, emitters, shards)
					want := NewBitset(n)
					rep.exec(plan, want, targets, emitters, 0, words)
					for _, parts := range []int{2, 3, 7, 64} {
						got := NewBitset(n)
						for i := range got {
							got[i] = ^uint64(0) // ranges own their words outright
						}
						chunk := (words + parts - 1) / parts
						if chunk == 0 {
							chunk = 1
						}
						var bounds [][2]int
						for lo := 0; lo < words; lo += chunk {
							bounds = append(bounds, [2]int{lo, min(lo+chunk, words)})
						}
						for i := len(bounds) - 1; i >= 0; i-- {
							rep.exec(plan, got, targets, emitters, bounds[i][0], bounds[i][1])
						}
						for i := range want {
							gw, ww := got[i], want[i]
							if plan.Pull {
								gw &= targets[i]
								ww &= targets[i]
							}
							if gw != ww {
								t.Fatalf("%s/%s trial %d shards %d parts %d (plan %+v): word %d = %x, want %x",
									name, rep.name, trial, shards, parts, plan, i, gw, ww)
							}
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
		if plan := c.PlanExchange(tc.targets, tc.emitters, 4); plan.Pull != tc.wantPull {
			t.Fatalf("%s: plan %+v, want Pull=%v", tc.name, plan, tc.wantPull)
		}
	}
}

// TestPlanExchangeSerialThresholds pins that tiny workloads never fan
// out (Serial plans) and big ones do when shards allow, for both
// representations.
func TestPlanExchangeSerialThresholds(t *testing.T) {
	dense := GNP(3000, 0.3, rng.New(5))
	n := dense.N()
	everyone := NewBitset(n)
	everyone.Fill(n)
	few := NewBitset(n)
	few.Set(7)
	for _, tc := range []struct {
		rep        string
		plan       func(targets, emitters Bitset, shards int) ExchangePlan
		emitters   Bitset
		shards     int
		wantSerial bool
	}{
		{"matrix", dense.Matrix().PlanExchange, everyone, 4, false},
		{"matrix", dense.Matrix().PlanExchange, few, 4, true},
		{"matrix", dense.Matrix().PlanExchange, everyone, 1, true},
		{"csr", dense.PlanExchange, few, 4, true},
		{"csr", dense.PlanExchange, few, 1, true},
	} {
		name := fmt.Sprintf("%s/emitters=%d/shards=%d", tc.rep, tc.emitters.Count(), tc.shards)
		if plan := tc.plan(everyone, tc.emitters, tc.shards); plan.Serial != tc.wantSerial {
			t.Fatalf("%s: plan %+v, want Serial=%v", name, plan, tc.wantSerial)
		}
	}
}
