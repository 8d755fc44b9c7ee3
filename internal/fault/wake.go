package fault

import (
	"sort"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// ResolveWake materialises a wake schedule into the per-node wake
// rounds the simulator's existing WakeAt machinery executes. It runs
// once, before the round loop, on the round-loop goroutine:
//
//   - uniform draws each node's round from master's dedicated
//     WakeStreamID stream in increasing node order — a fixed draw
//     sequence no engine or shard count can perturb;
//   - degree is deterministic: nodes wake in ascending (degree, id)
//     order spread evenly over [1, Window], so the highest-degree hubs
//     wake last (the adversary holds back the nodes whose late arrival
//     disrupts the most neighbours);
//   - explicit copies the listed rounds, defaulting unlisted nodes to
//     round 1.
//
// The schedule must have passed Validate for g.N() nodes.
func ResolveWake(w *Wake, g *graph.Graph, master *rng.Source) []int {
	if w == nil {
		return nil
	}
	n := g.N()
	wake := make([]int, n)
	switch w.Kind {
	case WakeUniform:
		src := master.Stream(WakeStreamID)
		for v := range wake {
			wake[v] = 1 + src.Intn(w.Window)
		}
	case WakeDegree:
		order := make([]int, n)
		for v := range order {
			order[v] = v
		}
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Degree(order[i]), g.Degree(order[j])
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
		for rank, v := range order {
			if n <= 1 {
				wake[v] = 1
				continue
			}
			wake[v] = 1 + rank*(w.Window-1)/(n-1)
		}
	case WakeExplicit:
		for v := range wake {
			wake[v] = 1
		}
		// Validate rejects a node listed at two rounds, so the writes
		// are disjoint; sorted round order keeps that independence from
		// mattering at all.
		for _, round := range sortedKeys(w.At) {
			for _, v := range w.At[round] {
				wake[v] = round
			}
		}
	}
	return wake
}
