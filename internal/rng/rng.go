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
// Working on a local copy of the state keeps it within the compiler's
// inlining budget.
func (s *Source) Uint64() uint64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	s.s = [4]uint64{s0, s1, s2, s3}
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

// BernoulliWord returns a word whose bit i, for each bit i set in lanes,
// is set with probability P(Float64() < p), independently, and whose
// other bits are clear. p ≤ 0 or NaN sets no bit and p ≥ 1 every lane
// bit; neither draws.
//
// It decides the lanes together, most significant bit first (Knuth &
// Yao, "The complexity of nonuniform random number generation", 1976).
// Float64() < p is U < T for the 53-bit integer U under Float64() and
// T = ⌈p·2⁵³⌉. Lane i's U is read from plane words drawn one Uint64
// each: bit i of the k-th word is U's bit 52−k. A lane is decided at the
// first plane where its bit differs from T's, won if T's bit is the set
// one. The draws stop once every lane is decided or T has no set bit
// below the planes drawn, which leaves the undecided lanes at U ≥ T:
// one plane at p = ½, about seven for 64 lanes at a p whose expansion
// does not end.
func (s *Source) BernoulliWord(p float64, lanes uint64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return lanes
	}
	x := p * (1 << 53) // exact: a power-of-two scaling
	t := uint64(x)
	if float64(t) < x {
		t++
	}
	// The state stays in registers across the planes.
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	var won uint64
	open := lanes
	for rest := t << 11; open != 0 && rest != 0; rest <<= 1 {
		w := bits.RotateLeft64(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		// tbit is all ones if T's bit on this plane is set. Then open
		// lanes with a clear bit win and those with a set bit stay open;
		// otherwise those with a set bit lose.
		tbit := -(rest >> 63)
		won |= open &^ w & tbit
		open &^= w ^ tbit
	}
	s.s = [4]uint64{s0, s1, s2, s3}
	return won
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
// It is a 256-layer ziggurat (Marsaglia & Tsang, 2000; see the tables in
// ziggurat.go): one Uint64 picks a layer by its low 8 bits and a point
// in it by its top 53, and is returned as is about 98% of the time. The
// rest take a tail or wedge step through Log, so every value has the
// same bits on every machine.
func (s *Source) ExpFloat64() float64 {
	u := s.Uint64()
	i, j := u&0xff, u>>11
	if j < zigK[i] {
		return float64(j) * zigW[i]
	}
	return s.expSlow(i, j)
}

// expSlow finishes an ExpFloat64 draw that left the fast path in layer
// i at the 53-bit point j, drawing afresh until a point is accepted.
func (s *Source) expSlow(i, j uint64) float64 {
	for {
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return x
		}
		if i == 0 {
			// Past zigR the base layer holds the tail, itself zigR plus an
			// exponential; 1 − Float64() is in (0, 1].
			return zigR - Log(1-s.Float64())
		}
		// The wedge: a uniform height y in layer i's band, accepted under
		// the density, y < e^(−x). The product is rounded on its own so
		// no compiler fuses it into the sum.
		y := zigF[i] + float64(s.Float64()*(zigF[i-1]-zigF[i]))
		if -Log(y) > x {
			return x
		}
		u := s.Uint64()
		i, j = u&0xff, u>>11
	}
}

// Log is the natural logarithm of a positive x, with frexp-style range
// reduction and an atanh series, precise to ~1e-15 relative error. It
// does not use package math, whose Log is assembly on some
// architectures only: Log gives the same bits on every machine, which
// the draw paths of ExpFloat64 and G(n, p) rely on. It panics for
// x ≤ 0, a caller's bug.
func Log(x float64) float64 {
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
	// The explicit conversion keeps e·ln2 rounded on its own, so no
	// compiler fuses it into the sum as one multiply-add. (2·sum is
	// exact, so fusing it would change nothing.)
	return 2*sum + float64(float64(e)*ln2)
}
