package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with same seed diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestReseed(t *testing.T) {
	a := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("after Reseed draw %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestStreamStableAndIndependent(t *testing.T) {
	master := New(99)
	s1 := master.Stream(5)
	s2 := master.Stream(5)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same stream id must yield identical streams")
		}
	}
	// Stream derivation must not depend on how much the master advanced.
	master2 := New(99)
	master2.Uint64()
	master2.Uint64()
	s3 := master2.Stream(5)
	s4 := New(99).Stream(5)
	for i := 0; i < 100; i++ {
		if s3.Uint64() != s4.Uint64() {
			t.Fatal("stream derivation must be independent of master draw position")
		}
	}
	// Distinct ids should not collide.
	sa, sb := New(99).Stream(1), New(99).Stream(2)
	same := 0
	for i := 0; i < 100; i++ {
		if sa.Uint64() == sb.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 matched on %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(7): value %d occurred %d/70000 times, far from uniform", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdge(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) empirical rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(10)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(12)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v, want ~1", mean)
	}
}

func TestLogAgreesWithMath(t *testing.T) {
	for _, x := range []float64{1e-9, 0.001, 0.5, 0.9999, 1, 1.0001, 2, math.E, 10, 12345.678, 1e12} {
		got := Log(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("Log(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLogPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

// Property: Intn(n) is always within range for any positive n.
func TestIntnPropertyRange(t *testing.T) {
	s := New(14)
	f := func(n uint16, _ uint8) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Stream is a pure function of (state-at-seed, id).
func TestStreamPropertyPure(t *testing.T) {
	f := func(seed, id uint64) bool {
		a := New(seed).Stream(id)
		b := New(seed).Stream(id)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

// TestBernoulliWordLanes rebuilds every lane's 53-bit uniform U from the
// plane words BernoulliWord draws, read from a clone of its source, and
// checks each decision against U < T for T = ⌈p·2⁵³⌉, the bits outside
// the lanes clear, and the number of words drawn against the early-exit
// rule: stop once every lane differs from T on some plane, or T has no
// set bit left. The masks include partial words, as a row's last word
// is, and one p has bits below 2⁻⁵³, so p·2⁵³ rounds up to T.
func TestBernoulliWordLanes(t *testing.T) {
	const planes = 53
	for _, p := range []float64{0.1, 0.3, 0.5, 0.9, 1 - 0x1p-53, 0.25 + 0x1p-54} {
		T := uint64(math.Ceil(p * (1 << planes)))
		for _, lanes := range []uint64{^uint64(0), 1, 1<<37 - 1, 1<<63 | 1, 0xf0f0} {
			src := New(uint64(1000*p) + lanes)
			for trial := range 300 {
				before := *src
				got := src.BernoulliWord(p, lanes)
				clone := before
				var words [planes]uint64
				for k := range words {
					words[k] = clone.Uint64()
				}
				// The draws stop once T has no set bit left, or once the
				// last lane is decided, whichever comes first.
				drawn := planes - bits.TrailingZeros64(T)
				decided := 0
				for i := range 64 {
					if lanes>>i&1 == 0 {
						continue
					}
					var u uint64
					first := planes // the first plane where U and T differ
					for k, w := range words {
						b := w >> i & 1
						u |= b << (planes - 1 - k)
						if first == planes && b != T>>(planes-1-k)&1 {
							first = k
						}
					}
					if want := u < T; (got>>i&1 == 1) != want {
						t.Fatalf("p=%v lanes=%#x trial %d: lane %d decided %v with U=%d, T=%d", p, lanes, trial, i, !want, u, T)
					}
					decided = max(decided, first+1)
				}
				if got&^lanes != 0 {
					t.Fatalf("p=%v lanes=%#x trial %d: bits %#x set outside the lanes", p, lanes, trial, got&^lanes)
				}
				drawn = min(drawn, decided)
				ref := before
				for range drawn {
					ref.Uint64()
				}
				if ref != *src {
					t.Fatalf("p=%v lanes=%#x trial %d: did not draw exactly %d plane words", p, lanes, trial, drawn)
				}
			}
		}
	}
}

// TestBernoulliWordEdges pins the draws that need no plane: an empty
// mask, p ≤ 0 or NaN, and p ≥ 1.
func TestBernoulliWordEdges(t *testing.T) {
	for _, tc := range []struct {
		p           float64
		lanes, want uint64
	}{
		{0.5, 0, 0},
		{0, ^uint64(0), 0},
		{-1, ^uint64(0), 0},
		{math.NaN(), ^uint64(0), 0},
		{1, 0xff, 0xff},
		{math.Inf(1), 0xff, 0xff},
	} {
		src := New(1)
		if got := src.BernoulliWord(tc.p, tc.lanes); got != tc.want {
			t.Errorf("BernoulliWord(%v, %#x) = %#x, want %#x", tc.p, tc.lanes, got, tc.want)
		}
		if *src != *New(1) {
			t.Errorf("BernoulliWord(%v, %#x) drew from its source", tc.p, tc.lanes)
		}
	}
}

// TestZigguratTables recomputes ExpFloat64's literal tables with package
// math from zigR and zigV, and checks the fast-path bounds exactly
// against the literal widths they are derived from.
func TestZigguratTables(t *testing.T) {
	if got := (zigR + 1) * math.Exp(-zigR); math.Abs(got-zigV) > 1e-15*zigV {
		t.Fatalf("zigV = %v, (zigR+1)·e^(−zigR) = %v", zigV, got)
	}
	var x [256]float64
	x[255] = zigR
	for i := 255; i >= 2; i-- {
		x[i-1] = -math.Log(zigV/x[i] + math.Exp(-x[i]))
	}
	// The top layer must close at x_0 = 0: its area is zigV too.
	if top := x[1] * (1 - math.Exp(-x[1])); math.Abs(top-zigV) > 1e-12*zigV {
		t.Fatalf("top layer area %v, want %v", top, zigV)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-14*math.Abs(want) }
	q := zigV / math.Exp(-zigR)
	if !near(zigW[0], q/(1<<53)) || zigF[0] != 1 {
		t.Fatalf("base layer: zigW[0] = %v, want %v; zigF[0] = %v, want 1", zigW[0], q/(1<<53), zigF[0])
	}
	if want := uint64(zigR / (zigW[0] * (1 << 53)) * (1 << 53)); zigK[0] != want {
		t.Fatalf("zigK[0] = %#x, want %#x", zigK[0], want)
	}
	if zigK[1] != 0 {
		t.Fatalf("zigK[1] = %#x, want 0", zigK[1])
	}
	for i := 1; i < 256; i++ {
		if !near(zigW[i], x[i]/(1<<53)) || !near(zigF[i], math.Exp(-x[i])) {
			t.Fatalf("layer %d: zigW = %v, zigF = %v; recomputed %v, %v", i, zigW[i], zigF[i], x[i]/(1<<53), math.Exp(-x[i]))
		}
		if i >= 2 {
			if want := uint64(zigW[i-1] / zigW[i] * (1 << 53)); zigK[i] != want {
				t.Fatalf("zigK[%d] = %#x, want %#x", i, zigK[i], want)
			}
		}
	}
}

// TestExpFloat64Distribution bins 10⁶ ziggurat draws, from a fixed seed,
// by the exponential's own quantiles and checks them by χ², and checks
// the tail past zigR, which only the base layer's slow step reaches.
func TestExpFloat64Distribution(t *testing.T) {
	const draws, bins = 1_000_000, 100
	s := New(21)
	var counts [bins]int
	tail := 0
	for range draws {
		x := s.ExpFloat64()
		if x < 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			t.Fatalf("ExpFloat64() = %v", x)
		}
		// Bin b holds the quantiles [b/bins, (b+1)/bins).
		counts[min(int((1-math.Exp(-x))*bins), bins-1)]++
		if x > zigR {
			tail++
		}
	}
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - draws/bins
		chi2 += d * d / (draws / bins)
	}
	// df = 99: mean 99, sd 14; 99 + 5 sd.
	if chi2 > 99+5*14 {
		t.Errorf("χ² = %.1f over %d quantile bins, want ≤ 169", chi2, bins)
	}
	want := draws * math.Exp(-zigR)
	if z := (float64(tail) - want) / math.Sqrt(want); math.Abs(z) > 4 {
		t.Errorf("%d draws past zigR, want %.0f (z = %.2f)", tail, want, z)
	}
}
