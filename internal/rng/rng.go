// Package rng provides small, fast, deterministic random number generation
// for the simulator and the message-passing protocol.
//
// Reproducibility is load-bearing here: the synchronous simulator and the
// message-passing protocol (internal/transport) must make exactly the same
// random choices when started from the same seed, so that executions can
// be cross-validated.
// Each node draws from its own independent stream derived from the master
// seed, which makes the draws insensitive to scheduling order.
//
// The generator is xoshiro256** seeded via SplitMix64, both public-domain
// algorithms by Blackman and Vigna. They are implemented here directly so
// the module stays dependency-free and the sequences are stable across Go
// releases (unlike math/rand's unspecified default source).
package rng

import "math/bits"

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine via Stream.
type Source struct {
	s    [4]uint64
	seed uint64 // seed this source was created from; anchors Stream derivation
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro state, per the authors' guidance.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Two Sources built from the same
// seed produce identical sequences.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	s.seed = seed
	sm := seed
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state; SplitMix64 cannot emit
	// four zeros from any seed, but guard anyway for safety.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// Stream derives an independent sub-stream of s identified by id, without
// advancing s. Streams with different ids are statistically independent;
// the same (seed, id) pair always yields the same stream, no matter how
// far s has advanced. This is how each simulated node gets its own private
// randomness, insensitive to goroutine scheduling order.
//
// Because derivation reads only the immutable origin seed, Stream may be
// called concurrently from many goroutines (absent a concurrent Reseed);
// the experiment trial pool leans on this to hand every parallel trial
// its own deterministic streams.
func (s *Source) Stream(id uint64) *Source {
	sub := &Source{}
	s.StreamInto(sub, id)
	return sub
}

// StreamInto derives the same sub-stream as Stream(id) into an
// existing Source, avoiding the allocation. A simulation over 10⁶
// nodes initialises 10⁶ per-node streams per run; deriving them into
// one contiguous backing array is measurably cheaper than 10⁶ heap
// objects, and keeps the hot per-node state cache-adjacent.
func (s *Source) StreamInto(dst *Source, id uint64) {
	// Mix the origin seed (not the mutable state) with the stream id
	// through SplitMix64 so derivation is a pure function of (seed, id).
	sm := s.seed ^ bits.RotateLeft64(id, 17) ^ 0xd1342543de82ef95
	dst.seed = sm
	for i := range dst.s {
		dst.s[i] = splitMix64(&sm)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics only on n <= 0, which is
// a programming error at the call site, consistent with math/rand.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.uint64n(uint64(n)))
}

// uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias.
func (s *Source) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// BernoulliExp2 returns true with probability 2^-k for k >= 0. It draws k
// bits at a time and is exact (no floating point), matching the paper's
// beeping probabilities p = 2^-n(t,v).
func (s *Source) BernoulliExp2(k uint) bool {
	for k > 0 {
		take := k
		if take > 64 {
			take = 64
		}
		mask := ^uint64(0)
		if take < 64 {
			mask = (uint64(1) << take) - 1
		}
		if s.Uint64()&mask != 0 {
			return false
		}
		k -= take
	}
	return true
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inverse transform sampling. Used by workload generators.
func (s *Source) ExpFloat64() float64 {
	// 1 - Float64() is in (0, 1], so the log argument is never zero.
	return -log(1 - s.Float64())
}

// log is a minimal natural logarithm for positive arguments, implemented
// with frexp-style range reduction and an atanh series, so the package
// avoids importing math (keeping it trivially portable) — and precise to
// ~1e-15 relative error, far better than the simulation needs.
func log(x float64) float64 {
	if x <= 0 {
		panic("rng: log of non-positive value")
	}
	// Range-reduce x = m * 2^e with m in [sqrt(2)/2, sqrt(2)).
	e := 0
	for x >= 1.4142135623730951 {
		x /= 2
		e++
	}
	for x < 0.7071067811865476 {
		x *= 2
		e--
	}
	// ln(m) via atanh series: ln(m) = 2*atanh((m-1)/(m+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := t
	term := t
	for k := 3; k <= 23; k += 2 {
		term *= t2
		sum += term / float64(k)
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(e)*ln2
}
