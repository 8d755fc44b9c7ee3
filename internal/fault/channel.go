package fault

import (
	"fmt"
	"math"

	"beepmis/internal/graph"
	"beepmis/internal/rng"
)

// Stream-id namespaces of the fault layer, far outside the per-node
// stream ids [0, n) (n ≤ 2²⁰ everywhere in this repository), so
// enabling faults never perturbs node randomness. Channel noise and
// beep loss pack (node, round) into the low bits of their namespaces:
// node ids fit 21 bits, and rounds — bounded in practice by
// sim.DefaultMaxRounds = 2²⁰ — fit the 39 bits left below the lowest
// namespace bit.
const (
	// channelNamespace tags per-(node, round) channel-noise streams.
	channelNamespace = uint64(1) << 62
	// WakeStreamID is the dedicated stream the uniform wake schedule
	// draws from, in node order, once, before the round loop starts.
	WakeStreamID = uint64(1) << 61
	// beepLossNamespace tags per-(listener, round) beep-loss streams.
	beepLossNamespace = uint64(1) << 60
	// MaxChannelNodes is the largest graph channel noise and beep loss
	// support: the node id's 21-bit field in their stream ids. Validate
	// and NewBeepLoss enforce it — beyond this, distinct (node, round)
	// pairs would silently collide. Twice the scenario layer's
	// MaxNodes, so every admissible scenario is noisy-capable.
	MaxChannelNodes = 1 << 21
)

// channelStreamID derives the stream id of one (node, round) noise
// draw.
func channelStreamID(node, round int) uint64 {
	return channelNamespace | uint64(round)<<21 | uint64(node)
}

// beepLossStreamID derives the stream id of one (listener, round)
// beep-loss draw.
func beepLossStreamID(node, round int) uint64 {
	return beepLossNamespace | uint64(round)<<21 | uint64(node)
}

// BeepLoss is independent per-edge loss on the first exchange: every
// beep fails to reach each of the emitter's neighbours independently
// with probability loss. Under the beeping model's OR semantics a
// listener only learns whether *some* neighbour beeped, so with k
// emitting neighbours it hears silence exactly when all k beeps are
// lost — probability loss^k — and that is all per-edge loss can change.
// BeepLoss therefore draws one uniform per (listener, round), from that
// pair's own stream, and compares it with loss^k: the same distribution
// as k per-edge coins, independent of visit order, engine and shard
// count. Like Channel it caches a scratch stream and is not safe for
// concurrent use.
type BeepLoss struct {
	loss    float64
	scratch rng.Source
}

// NewBeepLoss returns the beep-loss draw of an n-node run, or nil when
// loss is 0. It rejects a loss outside [0, 1) and, when loss is on, a
// graph wider than MaxChannelNodes.
func NewBeepLoss(loss float64, n int) (*BeepLoss, error) {
	if !(loss >= 0 && loss < 1) {
		return nil, fmt.Errorf("beep loss %v outside [0,1)", loss)
	}
	if loss == 0 {
		return nil, nil
	}
	if n > MaxChannelNodes {
		return nil, fmt.Errorf("beep loss supports at most %d nodes (got %d)", MaxChannelNodes, n)
	}
	return &BeepLoss{loss: loss}, nil
}

// Hears reports whether a listener with k ≥ 1 emitting neighbours hears
// at least one of their beeps in the given round: true with probability
// 1 − loss^k, drawn from the (node, round) stream of master.
//
//misvet:noalloc
func (b *BeepLoss) Hears(master *rng.Source, round, node, k int) bool {
	master.StreamInto(&b.scratch, beepLossStreamID(node, round))
	return b.scratch.Float64() >= math.Pow(b.loss, float64(k))
}

// Channel applies a Spec's per-listener noise to the heard bit of the
// first exchange: a listener that would hear a beep loses it with
// probability Loss, and one that would hear silence hears a phantom
// beep with probability Spurious.
//
// Exactly one uniform is drawn per (listener, round), from that pair's
// own stream derived off the run's master seed — never from a shared
// sequential source — so the outcome is independent of the order
// listeners are visited in, of the engine, and of the shard count. The
// struct only caches the probabilities and a scratch stream; it is not
// safe for concurrent use (engines apply noise on the round-loop
// goroutine, after the sharded propagation pass has joined).
type Channel struct {
	loss, spurious float64
	scratch        rng.Source
}

// NewChannel returns the channel-noise applier of spec, or nil when the
// spec carries no channel noise — callers gate on nil exactly like the
// trace hook.
func NewChannel(spec *Spec) *Channel {
	if !spec.Channelled() {
		return nil
	}
	return &Channel{loss: spec.Loss, spurious: spec.Spurious}
}

// Hears maps one listener's raw heard bit through the noisy channel for
// the given round, drawing from the (node, round) stream of master.
func (c *Channel) Hears(master *rng.Source, round, node int, raw bool) bool {
	master.StreamInto(&c.scratch, channelStreamID(node, round))
	u := c.scratch.Float64()
	if raw {
		return u >= c.loss
	}
	return u < c.spurious
}

// Apply rewrites heard in place for every listener in eligible — the
// bitset form the columnar and sparse engines use. Bits outside
// eligible are left untouched (the round loop never reads them).
func (c *Channel) Apply(master *rng.Source, round int, eligible, heard graph.Bitset) {
	eligible.ForEach(func(v int) {
		if c.Hears(master, round, v, heard.Test(v)) {
			heard.Set(v)
		} else {
			heard.Clear(v)
		}
	})
}
