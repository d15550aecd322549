package measure

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// allFuncs returns one instance of every measure function for generic
// property tests.
func allFuncs() []Func {
	return []Func{
		Lp{P: 0.5}, Lp{P: 1}, Lp{P: 1.5}, Lp{P: 2}, Lp{P: 3},
		L1L2{}, Fair{Tau: 2}, Huber{Tau: 3}, Huber{Tau: 0.5},
		Tukey{Tau: 5}, Sqrt(), Log1p(),
	}
}

func TestGZeroIsZero(t *testing.T) {
	for _, f := range allFuncs() {
		if g := f.G(0); g != 0 {
			t.Fatalf("%s: G(0) = %v", f.Name(), g)
		}
	}
}

func TestGSymmetric(t *testing.T) {
	for _, f := range allFuncs() {
		for x := int64(1); x < 100; x++ {
			if math.Abs(f.G(x)-f.G(-x)) > 1e-12 {
				t.Fatalf("%s: G not symmetric at %d", f.Name(), x)
			}
		}
	}
}

func TestGNonDecreasing(t *testing.T) {
	for _, f := range allFuncs() {
		prev := 0.0
		for x := int64(1); x < 1000; x++ {
			g := f.G(x)
			if g < prev-1e-12 {
				t.Fatalf("%s: G decreasing at %d: %v < %v", f.Name(), x, g, prev)
			}
			prev = g
		}
	}
}

func TestIncrementMatchesDifference(t *testing.T) {
	for _, f := range allFuncs() {
		for c := int64(0); c < 200; c++ {
			want := f.G(c+1) - f.G(c)
			got := f.Increment(c)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: Increment(%d) = %v, want %v", f.Name(), c, got, want)
			}
		}
	}
}

func TestZetaBoundsIncrements(t *testing.T) {
	const maxFreq = 5000
	for _, f := range allFuncs() {
		zeta := f.Zeta(maxFreq)
		if zeta <= 0 {
			t.Fatalf("%s: non-positive zeta", f.Name())
		}
		for x := int64(1); x <= maxFreq; x++ {
			inc := f.G(x) - f.G(x-1)
			if inc > zeta*(1+1e-12) {
				t.Fatalf("%s: increment at %d is %v > zeta %v", f.Name(), x, inc, zeta)
			}
		}
	}
}

func TestZetaProperty(t *testing.T) {
	// Property-based: for random maxFreq and random x ≤ maxFreq, zeta
	// bounds the increment.
	fn := func(seed uint16) bool {
		maxFreq := int64(seed%5000) + 1
		for _, f := range allFuncs() {
			zeta := f.Zeta(maxFreq)
			x := maxFreq
			if f.G(x)-f.G(x-1) > zeta*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// worstCaseFG exhaustively minimizes F_G over a few adversarial frequency
// splittings of total mass m: all-singletons, single heavy item, and
// two-level splits.
func worstCaseFG(f Func, m int64) float64 {
	worst := math.Inf(1)
	eval := func(freqs []int64) {
		fg := 0.0
		for _, x := range freqs {
			fg += f.G(x)
		}
		if fg < worst {
			worst = fg
		}
	}
	// Single item with frequency m.
	eval([]int64{m})
	// m items with frequency 1.
	ones := make([]int64, m)
	for i := range ones {
		ones[i] = 1
	}
	eval(ones)
	// Balanced splits into k parts.
	for _, k := range []int64{2, 3, 5, 10} {
		if k > m {
			continue
		}
		parts := make([]int64, k)
		rem := m
		for i := int64(0); i < k; i++ {
			parts[i] = m / k
			rem -= m / k
		}
		parts[0] += rem
		eval(parts)
	}
	return worst
}

func TestLowerBoundFGHolds(t *testing.T) {
	for _, f := range allFuncs() {
		for _, m := range []int64{1, 2, 10, 100, 1000} {
			lb := f.LowerBoundFG(m)
			worst := worstCaseFG(f, m)
			if lb > worst*(1+1e-9) {
				t.Fatalf("%s: LowerBoundFG(%d) = %v exceeds achievable F_G %v",
					f.Name(), m, lb, worst)
			}
		}
	}
}

func TestLowerBoundFGPositive(t *testing.T) {
	for _, f := range allFuncs() {
		if f.LowerBoundFG(10) <= 0 {
			t.Fatalf("%s: lower bound not positive", f.Name())
		}
		if f.LowerBoundFG(0) != 0 {
			t.Fatalf("%s: lower bound for empty stream not zero", f.Name())
		}
	}
}

func TestLpZetaPanicsWithoutBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lp{2}.Zeta(0) did not panic")
		}
	}()
	Lp{P: 2}.Zeta(0)
}

func TestLpKnownValues(t *testing.T) {
	l2 := Lp{P: 2}
	if l2.G(3) != 9 {
		t.Fatalf("L2 G(3) = %v", l2.G(3))
	}
	if l2.Increment(2) != 5 { // 9 - 4
		t.Fatalf("L2 Increment(2) = %v", l2.Increment(2))
	}
	l1 := Lp{P: 1}
	if l1.Zeta(100) != 1 {
		t.Fatalf("L1 zeta = %v", l1.Zeta(100))
	}
}

// TestLpIntegerPowMatchesPow pins Lp.G's multiply path for p = 2 and
// p = 3 to math.Pow bit for bit: every acceptance coin the framework
// flips compares against Increment, so one differing ulp would move a
// coin. Inputs: random x in [1, 2^62], drawn uniformly and
// log-uniformly; 2^k ± 1; negatives; 0. p = 0.5 and p = 2.5 run
// through the same comparison, so a multiply path that caught a
// non-integer p would fail here too.
func TestLpIntegerPowMatchesPow(t *testing.T) {
	pow := func(x int64, p float64) float64 {
		if x < 0 {
			x = -x
		}
		if x == 0 {
			return 0
		}
		return math.Pow(float64(x), p)
	}
	src := rng.New(0x1ea7)
	xs := []int64{0, 1, 2, 3}
	for k := 1; k <= 62; k++ {
		xs = append(xs, 1<<k-1, 1<<k, 1<<k+1)
	}
	for i := 0; i < 100000; i++ {
		xs = append(xs, 1+src.Int63n(1<<62), int64(src.Uint64()>>(2+src.Intn(62)))+1)
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	for _, p := range []float64{2, 3, 0.5, 2.5} {
		l := Lp{P: p}
		for _, x := range xs {
			if got, want := l.G(x), pow(x, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%v: G(%d) = %v (%#x), math.Pow gives %v (%#x)",
					p, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := l.Increment(x), pow(x+1, p)-pow(x, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%v: Increment(%d) = %v, math.Pow gives %v", p, x, got, want)
			}
		}
	}
}

func TestTukeySaturates(t *testing.T) {
	tk := Tukey{Tau: 4}
	cap := tk.Tau * tk.Tau / 6
	if math.Abs(tk.G(4)-cap) > 1e-12 || math.Abs(tk.G(100)-cap) > 1e-12 {
		t.Fatalf("Tukey does not saturate: G(4)=%v G(100)=%v cap=%v",
			tk.G(4), tk.G(100), cap)
	}
}

func TestHuberKink(t *testing.T) {
	h := Huber{Tau: 3}
	// At x = τ both branches agree: τ/2.
	if math.Abs(h.G(3)-1.5) > 1e-12 {
		t.Fatalf("Huber G(τ) = %v, want 1.5", h.G(3))
	}
	if math.Abs(h.G(5)-(5-1.5)) > 1e-12 {
		t.Fatalf("Huber linear branch wrong: %v", h.G(5))
	}
}

func TestFairIsBelowL1(t *testing.T) {
	f := Fair{Tau: 2}
	for x := int64(1); x < 100; x++ {
		if f.G(x) >= f.Tau*float64(x) {
			t.Fatalf("Fair G(%d) = %v not below τ|x|", x, f.G(x))
		}
	}
}

func TestConcaveSubadditivityBound(t *testing.T) {
	s := Sqrt()
	// F_G over {4,4} with m=8 is 4 ≥ g(8)=2.83.
	lb := s.LowerBoundFG(8)
	if lb > s.G(4)+s.G(4) {
		t.Fatalf("sqrt lower bound %v too big", lb)
	}
}

func TestNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range allFuncs() {
		if seen[f.Name()] {
			t.Fatalf("duplicate name %q", f.Name())
		}
		seen[f.Name()] = true
	}
}
