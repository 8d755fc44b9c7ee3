package sim

import (
	"sort"

	"beepmis/internal/fault"
)

// faultPlan is a validated fault.Spec precompiled for the round loop:
// the channel-noise applier plus the outage schedule inverted into
// per-round node lists, so each round's fault processing costs only the
// nodes actually transitioning. Node lists are sorted ascending, so
// both engines process recoveries and downs in the same deterministic
// order. A nil *faultPlan means the run needs no per-round fault work
// (a wake-only spec resolves into Options.WakeAt before the loop and
// needs no plan).
type faultPlan struct {
	// channel applies per-listener loss/spurious noise; nil when the
	// spec carries none.
	channel *fault.Channel
	// startAt lists the nodes going down at each round.
	startAt map[int][]int
	// resumeAt / resetAt list the nodes recovering at each round with
	// resume and reset semantics respectively.
	resumeAt, resetAt map[int][]int
	// lastReset is the latest round any reset recovery fires (0 when
	// none). A reset revives its node whatever state it is in, so the
	// round loop must not declare termination while one is pending —
	// otherwise an outage scheduled past early convergence would be
	// silently dropped, and a declared perturbation that never happens
	// looks exactly like robustness.
	lastReset int
}

// outages reports whether the plan carries any downtime schedule.
func (p *faultPlan) outages() bool { return p != nil && p.startAt != nil }

// keepAlive reports whether the round loop must keep running at the
// given round even with no active nodes: a pending reset recovery will
// revive its node, so convergence before it is provisional. (Resume
// recoveries need no such handling — a down *active* node already
// holds the active count above zero, and resuming a terminal node
// changes nothing.)
func (p *faultPlan) keepAlive(round int) bool { return p != nil && round <= p.lastReset }

// newFaultPlan compiles a validated spec. It returns nil when the spec
// needs no per-round processing.
func newFaultPlan(fs *fault.Spec) *faultPlan {
	if fs == nil || (!fs.Channelled() && len(fs.Outages) == 0) {
		return nil
	}
	p := &faultPlan{channel: fault.NewChannel(fs)}
	if len(fs.Outages) == 0 {
		return p
	}
	p.startAt = make(map[int][]int)
	p.resumeAt = make(map[int][]int)
	p.resetAt = make(map[int][]int)
	for _, o := range fs.Outages {
		p.startAt[o.From] = append(p.startAt[o.From], o.Node)
		end := o.From + o.For
		if o.Reset {
			p.resetAt[end] = append(p.resetAt[end], o.Node)
			if end > p.lastReset {
				p.lastReset = end
			}
		} else {
			p.resumeAt[end] = append(p.resumeAt[end], o.Node)
		}
	}
	for _, m := range []map[int][]int{p.startAt, p.resumeAt, p.resetAt} {
		//misvet:allow(determinism) each value slice is sorted in place; no state flows between iterations, so visit order is unobservable
		for _, nodes := range m {
			sort.Ints(nodes)
		}
	}
	return p
}
