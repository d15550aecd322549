// Package measure defines the weight functions G : R → R≥0 that the
// truly perfect sampling framework (Framework 1.3 / Theorem 3.1) is
// instantiated with, together with the two quantities the framework
// needs from each G *with probability 1*:
//
//   - an increment bound ζ with G(x) − G(x−1) ≤ ζ for all 1 ≤ x ≤ maxFreq
//     (the rejection-sampling normalizer), and
//   - a deterministic lower bound F̂_G ≤ F_G = Σ_i G(f_i) given only the
//     stream length m (which fixes the number of parallel instances).
//
// Every function here satisfies the paper's standing assumptions:
// G(x) = G(−x), G(0) = 0, and G non-decreasing in |x| (§3).
package measure

import (
	"fmt"
	"math"
)

// Func is a measure function G together with the bounds the framework
// needs. Implementations must be usable with probability-1 guarantees:
// no randomness, no estimation error.
type Func interface {
	// Name identifies the function in logs and experiment tables.
	Name() string
	// G evaluates the measure at a non-negative integer frequency.
	G(x int64) float64
	// Increment returns G(c+1) − G(c) for c ≥ 0. Implementations may
	// compute this more stably than subtracting two calls to G.
	Increment(c int64) float64
	// Zeta returns an upper bound on G(x) − G(x−1) valid for all
	// 1 ≤ x ≤ maxFreq. maxFreq ≤ 0 means "no bound known"; implementations
	// must then return a bound valid for all x, or panic if none exists.
	Zeta(maxFreq int64) float64
	// LowerBoundFG returns a value ≤ F_G valid for every insertion-only
	// stream of length m ≥ 1 (so every f with ‖f‖₁ = m). Used to size the
	// instance pool; must hold with probability 1.
	LowerBoundFG(m int64) float64
}

// Lp is G(x) = |x|^p for p > 0 (the Lp samplers of Theorems 3.3–3.5).
type Lp struct{ P float64 }

// Name implements Func.
func (l Lp) Name() string { return fmt.Sprintf("L%.4g", l.P) }

// G implements Func. For p = 2 and p = 3 it multiplies instead of
// calling math.Pow: Pow's own squaring loop forms the same rounded
// products on the mantissa and rescales exactly, so the results are
// bit-for-bit equal (TestLpIntegerPowMatchesPow) and no coin moves.
func (l Lp) G(x int64) float64 {
	if x < 0 {
		x = -x
	}
	if x == 0 {
		return 0
	}
	fx := float64(x)
	switch l.P {
	case 2:
		return fx * fx
	case 3:
		return fx * fx * fx
	}
	return math.Pow(fx, l.P)
}

// Increment implements Func.
func (l Lp) Increment(c int64) float64 { return l.G(c+1) - l.G(c) }

// Zeta implements Func. For p ≤ 1 the increments are at most 1 (Theorem
// 3.5); for p > 1 they are at most p·Z^{p−1} where Z ≥ ‖f‖∞ (Theorem 3.4
// uses the generalized binomial theorem for p ≤ 2; p·Z^{p−1} covers all
// p ≥ 1 by the mean value theorem).
func (l Lp) Zeta(maxFreq int64) float64 {
	if l.P <= 1 {
		return 1
	}
	if maxFreq <= 0 {
		panic("measure: Lp with p>1 needs a frequency bound for Zeta")
	}
	return l.P * math.Pow(float64(maxFreq), l.P-1)
}

// LowerBoundFG implements Func. For p ≥ 1, x^p ≥ x on integers x ≥ 1
// gives F_p ≥ ‖f‖₁ = m. For p < 1, F_p ≥ m^p by subadditivity of
// t ↦ t^p (this is the bound behind Theorem 3.5's m^{1−p} instance
// count).
func (l Lp) LowerBoundFG(m int64) float64 {
	if m <= 0 {
		return 0
	}
	if l.P >= 1 {
		return float64(m) // x^p ≥ x for x ≥ 1
	}
	return math.Pow(float64(m), l.P) // subadditivity of x^p, p ≤ 1
}

// L1L2 is the L1–L2 M-estimator G(x) = 2(√(1+x²/2) − 1) (§3.2.2).
type L1L2 struct{}

// Name implements Func.
func (L1L2) Name() string { return "L1-L2" }

// G implements Func.
func (L1L2) G(x int64) float64 {
	fx := float64(x)
	return 2 * (math.Sqrt(1+fx*fx/2) - 1)
}

// Increment implements Func.
func (e L1L2) Increment(c int64) float64 { return e.G(c+1) - e.G(c) }

// Zeta implements Func. G is convex with G′(x) = x/√(1+x²/2) ↑ √2, so
// increments are < √2 (the paper uses the looser constant 3).
func (L1L2) Zeta(int64) float64 { return math.Sqrt2 }

// LowerBoundFG implements Func. G is convex with G(0) = 0, so
// G(x)/x ≥ G(1) for x ≥ 1 and F_G ≥ G(1)·m.
func (e L1L2) LowerBoundFG(m int64) float64 { return e.G(1) * float64(m) }

// Fair is the Fair estimator G(x) = τ|x| − τ² log(1 + |x|/τ) (§3.2.2).
type Fair struct{ Tau float64 }

// Name implements Func.
func (f Fair) Name() string { return fmt.Sprintf("Fair(τ=%.3g)", f.Tau) }

// G implements Func.
func (f Fair) G(x int64) float64 {
	ax := math.Abs(float64(x))
	return f.Tau*ax - f.Tau*f.Tau*math.Log1p(ax/f.Tau)
}

// Increment implements Func.
func (f Fair) Increment(c int64) float64 { return f.G(c+1) - f.G(c) }

// Zeta implements Func. G′(x) = τx/(τ+x) < τ.
func (f Fair) Zeta(int64) float64 { return f.Tau }

// LowerBoundFG implements Func (convexity: G(x) ≥ G(1)·x).
func (f Fair) LowerBoundFG(m int64) float64 { return f.G(1) * float64(m) }

// Huber is the Huber estimator: G(x) = x²/(2τ) for |x| ≤ τ and
// |x| − τ/2 otherwise (§3.2.2).
type Huber struct{ Tau float64 }

// Name implements Func.
func (h Huber) Name() string { return fmt.Sprintf("Huber(τ=%.3g)", h.Tau) }

// G implements Func.
func (h Huber) G(x int64) float64 {
	ax := math.Abs(float64(x))
	if ax <= h.Tau {
		return ax * ax / (2 * h.Tau)
	}
	return ax - h.Tau/2
}

// Increment implements Func.
func (h Huber) Increment(c int64) float64 { return h.G(c+1) - h.G(c) }

// Zeta implements Func. The slope is min(|x|/τ, 1) ≤ 1 for τ ≥ 1; for
// τ < 1 the quadratic branch has increments ≤ (2τ+1)/(2τ) at the kink...
// a clean valid bound for all τ > 0 is max(1, (τ+1/2)/τ) simplified to
// 1 + 1/(2τ) when τ < 1.
func (h Huber) Zeta(int64) float64 {
	if h.Tau >= 1 {
		return 1
	}
	return 1 + 1/(2*h.Tau)
}

// LowerBoundFG implements Func (convexity: G(x) ≥ G(1)·x).
func (h Huber) LowerBoundFG(m int64) float64 { return h.G(1) * float64(m) }

// Tukey is the Tukey biweight G(x) = τ²/6·(1 − (1 − x²/τ²)³) for |x| ≤ τ
// and τ²/6 otherwise (§5). It is bounded and non-convex, so the generic
// framework bound fails; the paper samples it through an F0 sampler
// (Theorems 5.4, 5.5) and so do we — see package f0.
type Tukey struct{ Tau float64 }

// Name implements Func.
func (t Tukey) Name() string { return fmt.Sprintf("Tukey(τ=%.3g)", t.Tau) }

// G implements Func.
func (t Tukey) G(x int64) float64 {
	ax := math.Abs(float64(x))
	if ax >= t.Tau {
		return t.Tau * t.Tau / 6
	}
	r := 1 - ax*ax/(t.Tau*t.Tau)
	return t.Tau * t.Tau / 6 * (1 - r*r*r)
}

// Increment implements Func.
func (t Tukey) Increment(c int64) float64 { return t.G(c+1) - t.G(c) }

// Zeta implements Func. Max slope of the biweight is at x = τ/√5:
// G′(x) = x(1−x²/τ²)², bounded by τ·16/(25√5) < 0.2863τ; we return the
// safe bound τ.
func (t Tukey) Zeta(int64) float64 { return t.Tau }

// LowerBoundFG implements Func. Every non-zero coordinate contributes at
// least G(1), and an m-length stream has at least one non-zero
// coordinate, but as little as one: F_G ≥ G(1). (This is why the generic
// framework needs m/F̂_G = O(m) instances for Tukey and the paper routes
// it through F0 sampling instead.)
func (t Tukey) LowerBoundFG(m int64) float64 {
	if m <= 0 {
		return 0
	}
	return t.G(1)
}

// Concave wraps any concave non-decreasing g with g(0)=0 (the class
// considered by [CG19], which the paper's framework subsumes, §1.1).
// Concavity gives both framework bounds for free: increments are largest
// at x = 1 (ζ = g(1)), and subadditivity of concave g with g(0) = 0
// gives the deterministic lower bound F_G = Σ g(f_i) ≥ g(Σ f_i) = g(m).
type Concave struct {
	Label string
	Fn    func(float64) float64
}

// Name implements Func.
func (c Concave) Name() string { return c.Label }

// G implements Func.
func (c Concave) G(x int64) float64 {
	if x < 0 {
		x = -x
	}
	if x == 0 {
		return 0
	}
	return c.Fn(float64(x))
}

// Increment implements Func.
func (c Concave) Increment(x int64) float64 { return c.G(x+1) - c.G(x) }

// Zeta implements Func: concave increments are maximized at x = 1.
func (c Concave) Zeta(int64) float64 { return c.Fn(1) }

// LowerBoundFG implements Func: Σ g(f_i) ≥ g(Σ f_i) = g(m) by
// subadditivity of concave g with g(0) = 0.
func (c Concave) LowerBoundFG(m int64) float64 {
	if m <= 0 {
		return 0
	}
	return c.Fn(float64(m))
}

// Sqrt returns the concave measure g(x) = √x, a standard cap statistic.
func Sqrt() Concave {
	return Concave{Label: "sqrt", Fn: math.Sqrt}
}

// Log1p returns the concave measure g(x) = log(1+x).
func Log1p() Concave {
	return Concave{Label: "log1p", Fn: math.Log1p}
}
