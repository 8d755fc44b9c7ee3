package graph

import (
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by VerifyMIS, exported so tests and callers can match
// the specific violation.
var (
	// ErrNotIndependent indicates two adjacent vertices are in the set.
	ErrNotIndependent = errors.New("graph: set is not independent")
	// ErrNotMaximal indicates some vertex could still join the set.
	ErrNotMaximal = errors.New("graph: independent set is not maximal")
)

// IsIndependent reports whether no two vertices of set are adjacent.
// set[v] must be indexable for all v in [0, g.N()).
func IsIndependent(g *Graph, set []bool) bool {
	return firstDependent(g.cover(set)) < 0
}

// VerifyMIS checks that set is a maximal independent set of g: no two
// members adjacent, and every non-member has a member neighbour. It
// returns nil on success, or an error wrapping ErrNotIndependent /
// ErrNotMaximal naming a witness vertex or edge.
//
// One push of the members' rows into a covered bitset decides both,
// by word checks. The witnesses are the lowest ones a vertex-by-vertex
// scan would meet. The smallest member that is covered has no smaller
// member neighbour (that neighbour would be a smaller covered member),
// so it and the first member in its sorted row are the lowest
// dependent edge. The smallest vertex neither a member nor covered is
// the lowest undominated one; maximality is checked only once
// independence holds.
func VerifyMIS(g *Graph, set []bool) error {
	if len(set) != g.N() {
		return fmt.Errorf("graph: set length %d does not match n=%d", len(set), g.N())
	}
	members, covered := g.cover(set)
	if v := firstDependent(members, covered); v >= 0 {
		for _, w := range g.Neighbors(v) {
			if set[w] {
				return fmt.Errorf("%w: edge {%d,%d} inside set", ErrNotIndependent, v, w)
			}
		}
	}
	for wi, m := range members {
		if gap := ^(m | covered[wi]); gap != 0 {
			// Only the last word's unused tail bits can lie past n.
			if v := wi<<6 + bits.TrailingZeros64(gap); v < g.n {
				return fmt.Errorf("%w: vertex %d has no neighbour in the set", ErrNotMaximal, v)
			}
		}
	}
	return nil
}

// cover packs set's first g.N() entries into members and pushes every
// member's row into covered, which then holds exactly the vertices
// with a member neighbour.
func (g *Graph) cover(set []bool) (members, covered Bitset) {
	members = NewBitset(g.n)
	for v, in := range set[:g.n] {
		if in {
			members.Set(v)
		}
	}
	covered = NewBitset(g.n)
	g.scatterRowsInto(covered, members, 0, len(members))
	return members, covered
}

// firstDependent returns the smallest member that has a member
// neighbour, or -1.
func firstDependent(members, covered Bitset) int {
	for wi, m := range members {
		if both := m & covered[wi]; both != 0 {
			return wi<<6 + bits.TrailingZeros64(both)
		}
	}
	return -1
}

// SetToList converts a membership vector to a sorted vertex list.
func SetToList(set []bool) []int {
	var out []int
	for v, in := range set {
		if in {
			out = append(out, v)
		}
	}
	return out
}
