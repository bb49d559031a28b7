// Package dist provides the probability distributions used as processing-,
// service-, and switchover-time laws throughout the repository, together
// with the hazard-rate machinery the batch-scheduling experiments need.
//
// Every law implements Distribution: exact first and second moments (the
// queueing formulas are two-moment formulas) and exact sampling from an
// explicit rng.Stream. Laws with finite support additionally expose their
// support, which the exact enumeration baselines consume; laws with a
// closed-form CDF feed the hazard-rate classifier.
package dist

import (
	"fmt"
	"math"

	"stochsched/internal/rng"
)

// Distribution is a nonnegative random variable with known moments.
type Distribution interface {
	// Mean returns E[X].
	Mean() float64
	// Var returns Var[X].
	Var() float64
	// Sample draws one variate from the stream.
	Sample(s *rng.Stream) float64
}

// SCV returns the squared coefficient of variation Var/Mean², the shape
// statistic that separates the low- and high-variability service regimes.
func SCV(d Distribution) float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	return d.Var() / (m * m)
}

// cdfer is implemented by laws with a closed-form CDF; see MonotoneHazard.
type cdfer interface {
	CDF(x float64) float64
}

// Invertible reports whether the law samples by a monotone transform of
// its uniforms (inverse-CDF or a constant), which is what antithetic
// variates need: complementing the uniform (u → 1−u) then yields a
// negatively correlated variate. Exponential, Uniform, Weibull, and
// Deterministic qualify; the discrete and mixture laws (TwoPoint,
// Discrete, HyperExp) select branches with their uniforms and Erlang
// multiplies several, so mirroring them is valid randomness but carries no
// variance-reduction guarantee — scenarios reject the antithetic knob for
// specs using them.
func Invertible(d Distribution) bool {
	switch d.(type) {
	case Exponential, Deterministic, Uniform, Weibull:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Exponential

// Exponential is the exponential law with the given rate (mean 1/Rate).
type Exponential struct {
	Rate float64
}

// Mean implements Distribution.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// Var implements Distribution.
func (d Exponential) Var() float64 { return 1 / (d.Rate * d.Rate) }

// Sample implements Distribution.
func (d Exponential) Sample(s *rng.Stream) float64 { return s.Exp(d.Rate) }

// CDF returns P(X ≤ x).
func (d Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-d.Rate*x)
}

func (d Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", d.Rate) }

// ---------------------------------------------------------------------------
// Deterministic

// Deterministic is the point mass at Value.
type Deterministic struct {
	Value float64
}

// Mean implements Distribution.
func (d Deterministic) Mean() float64 { return d.Value }

// Var implements Distribution.
func (d Deterministic) Var() float64 { return 0 }

// Sample implements Distribution.
func (d Deterministic) Sample(*rng.Stream) float64 { return d.Value }

// CDF returns P(X ≤ x).
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }

// ---------------------------------------------------------------------------
// Uniform

// Uniform is the continuous uniform law on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Mean implements Distribution.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Var implements Distribution.
func (d Uniform) Var() float64 {
	w := d.Hi - d.Lo
	return w * w / 12
}

// Sample implements Distribution.
func (d Uniform) Sample(s *rng.Stream) float64 { return d.Lo + (d.Hi-d.Lo)*s.Float64() }

// CDF returns P(X ≤ x).
func (d Uniform) CDF(x float64) float64 {
	switch {
	case x <= d.Lo:
		return 0
	case x >= d.Hi:
		return 1
	default:
		return (x - d.Lo) / (d.Hi - d.Lo)
	}
}

func (d Uniform) String() string { return fmt.Sprintf("U[%g,%g]", d.Lo, d.Hi) }

// ---------------------------------------------------------------------------
// Erlang

// Erlang is the Erlang-K law: the sum of K iid exponentials with the given
// rate (mean K/Rate, variance K/Rate²). K must be ≥ 1; a draw costs K
// uniforms, so callers taking K from a request bound it (spec.MaxErlangK).
type Erlang struct {
	K    int
	Rate float64
}

// Mean implements Distribution.
func (d Erlang) Mean() float64 { return float64(d.K) / d.Rate }

// Var implements Distribution.
func (d Erlang) Var() float64 { return float64(d.K) / (d.Rate * d.Rate) }

// erlangFold is the running product below which Erlang.Sample moves it
// into its log accumulator: one more uniform (≥ 2^-53) cannot take it
// below the normal range, and a product of K ≤ 300 uniforms reaches it
// with probability below 1e-15, so draws with small K take the plain path.
const erlangFold = 1e-200

// Sample implements Distribution.
func (d Erlang) Sample(s *rng.Stream) float64 {
	// −log(∏ U_i)/rate accumulates the K exponential phases with one
	// logarithm. The product of ~700 or more uniforms underflows to 0, so
	// it is folded into logSum whenever it drops below erlangFold; without
	// a fold, logSum is 0 and the draw is exactly −log(∏ U_i)/rate.
	prod, logSum := 1.0, 0.0
	for i := 0; i < d.K; i++ {
		prod *= s.Float64Open()
		if prod < erlangFold {
			logSum += math.Log(prod)
			prod = 1
		}
	}
	return -(logSum + math.Log(prod)) / d.Rate
}

// CDF returns P(X ≤ x) = 1 − e^{−rx} Σ_{j<K} (rx)^j/j!.
func (d Erlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	rx := d.Rate * x
	term := 1.0
	sum := 1.0
	for j := 1; j < d.K; j++ {
		term *= rx / float64(j)
		sum += term
	}
	return 1 - math.Exp(-rx)*sum
}

func (d Erlang) String() string { return fmt.Sprintf("Erlang(k=%d,rate=%g)", d.K, d.Rate) }

// ---------------------------------------------------------------------------
// Weibull

// Weibull is the Weibull law with shape K and scale Lambda. Its hazard rate
// is decreasing for K < 1, constant for K = 1 (exponential), and increasing
// for K > 1 — the sweep axis of the hazard-regime experiment E05.
type Weibull struct {
	K      float64 // shape
	Lambda float64 // scale
}

// Mean implements Distribution.
func (d Weibull) Mean() float64 { return d.Lambda * math.Gamma(1+1/d.K) }

// Var implements Distribution.
func (d Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/d.K)
	g2 := math.Gamma(1 + 2/d.K)
	return d.Lambda * d.Lambda * (g2 - g1*g1)
}

// Sample implements Distribution.
func (d Weibull) Sample(s *rng.Stream) float64 {
	return d.Lambda * math.Pow(-math.Log(s.Float64Open()), 1/d.K)
}

// CDF returns P(X ≤ x).
func (d Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/d.Lambda, d.K))
}

func (d Weibull) String() string { return fmt.Sprintf("Weibull(k=%g,λ=%g)", d.K, d.Lambda) }

// ---------------------------------------------------------------------------
// TwoPoint

// TwoPoint takes value A with probability PA and value B otherwise — the
// minimal law exhibiting the SEPT reversal of Coffman–Hofri–Weiss (E06).
type TwoPoint struct {
	A, B float64
	PA   float64
}

// Mean implements Distribution.
func (d TwoPoint) Mean() float64 { return d.PA*d.A + (1-d.PA)*d.B }

// Var implements Distribution.
func (d TwoPoint) Var() float64 {
	m := d.Mean()
	return d.PA*(d.A-m)*(d.A-m) + (1-d.PA)*(d.B-m)*(d.B-m)
}

// Sample implements Distribution.
func (d TwoPoint) Sample(s *rng.Stream) float64 {
	if s.Bernoulli(d.PA) {
		return d.A
	}
	return d.B
}

// CDF returns P(X ≤ x).
func (d TwoPoint) CDF(x float64) float64 {
	lo, hi, pLo := d.A, d.B, d.PA
	if lo > hi {
		lo, hi, pLo = d.B, d.A, 1-d.PA
	}
	switch {
	case x < lo:
		return 0
	case x < hi:
		return pLo
	default:
		return 1
	}
}

func (d TwoPoint) String() string { return fmt.Sprintf("TwoPoint(%g@%g,%g)", d.A, d.PA, d.B) }

// ---------------------------------------------------------------------------
// Discrete

// Discrete is a finite discrete law on the given support. Construct with
// NewDiscrete, which validates; the zero value is not usable.
//
// NewDiscrete also precomputes a Walker/Vose alias table, so Sample runs in
// O(1) regardless of support size — one uniform draw selects both the
// bucket and the stay-or-alias decision. Values constructed as struct
// literals (without NewDiscrete) carry no table and fall back to the linear
// CDF walk; both paths consume exactly one Float64 per sample and draw from
// the identical law.
type Discrete struct {
	Values []float64
	Probs  []float64

	// Alias table: bucket i keeps index i with probability stay[i] and
	// yields alias[i] otherwise. Built only by NewDiscrete.
	alias []int32
	stay  []float64
}

// NewDiscrete returns the discrete law taking Values[i] with probability
// Probs[i]. Probabilities must be nonnegative and sum to 1 (within 1e-9).
func NewDiscrete(values, probs []float64) (Discrete, error) {
	if len(values) == 0 || len(values) != len(probs) {
		return Discrete{}, fmt.Errorf("dist: NewDiscrete needs matching nonempty values/probs, got %d/%d",
			len(values), len(probs))
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) {
			return Discrete{}, fmt.Errorf("dist: NewDiscrete negative or NaN probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return Discrete{}, fmt.Errorf("dist: NewDiscrete probabilities sum to %v, want 1", sum)
	}
	d := Discrete{
		Values: append([]float64(nil), values...),
		Probs:  append([]float64(nil), probs...),
	}
	d.alias, d.stay = buildAlias(d.Probs)
	return d, nil
}

// buildAlias constructs a Walker/Vose alias table for the given
// probabilities (assumed validated). The construction is deterministic:
// under-full and over-full buckets are worklists processed in a fixed
// index-derived order with no map iteration or randomness anywhere,
// so the same probabilities always yield the same table — a table is part
// of the law's identity, never a per-process artifact (see
// docs/determinism.md).
func buildAlias(probs []float64) (alias []int32, stay []float64) {
	n := len(probs)
	alias = make([]int32, n)
	stay = make([]float64, n)
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range probs {
		alias[i] = int32(i)
		scaled[i] = p * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		stay[l] = scaled[l]
		alias[l] = g
		scaled[g] -= 1 - scaled[l]
		if scaled[g] < 1 {
			large = large[:len(large)-1]
			small = append(small, g)
		}
	}
	// Leftovers on either list are exactly full up to rounding error.
	for _, g := range large {
		stay[g] = 1
	}
	for _, l := range small {
		stay[l] = 1
	}
	return alias, stay
}

// pick draws an index according to Probs: via the alias table when the law
// was built by NewDiscrete, via the linear CDF walk otherwise. Both consume
// exactly one Float64 from s.
func (d Discrete) pick(s *rng.Stream) int {
	if len(d.stay) != len(d.Probs) {
		return s.Categorical(d.Probs)
	}
	x := s.Float64() * float64(len(d.stay))
	i := int(x)
	if i >= len(d.stay) { // guard the u→1 rounding edge
		i = len(d.stay) - 1
	}
	if x-float64(i) < d.stay[i] {
		return i
	}
	return int(d.alias[i])
}

// Mean implements Distribution.
func (d Discrete) Mean() float64 {
	m := 0.0
	for i, v := range d.Values {
		m += d.Probs[i] * v
	}
	return m
}

// Var implements Distribution.
func (d Discrete) Var() float64 {
	m := d.Mean()
	v := 0.0
	for i, x := range d.Values {
		v += d.Probs[i] * (x - m) * (x - m)
	}
	return v
}

// Sample implements Distribution.
func (d Discrete) Sample(s *rng.Stream) float64 {
	return d.Values[d.pick(s)]
}

// CDF returns P(X ≤ x).
func (d Discrete) CDF(x float64) float64 {
	total := 0.0
	for i, v := range d.Values {
		if v <= x {
			total += d.Probs[i]
		}
	}
	return total
}

func (d Discrete) String() string { return fmt.Sprintf("Discrete(%d atoms)", len(d.Values)) }

// ---------------------------------------------------------------------------
// Hyperexponential

// HyperExp mixes exponential branches: with probability Ps[i] the variate is
// exponential with rate Rates[i]. Its SCV is always ≥ 1, making it the
// standard high-variability service law. Construct with NewHyperExp.
type HyperExp struct {
	Ps    []float64
	Rates []float64
}

// NewHyperExp returns the hyperexponential mixture of the given branches.
func NewHyperExp(ps, rates []float64) (HyperExp, error) {
	if len(ps) == 0 || len(ps) != len(rates) {
		return HyperExp{}, fmt.Errorf("dist: NewHyperExp needs matching nonempty ps/rates, got %d/%d",
			len(ps), len(rates))
	}
	sum := 0.0
	for i, p := range ps {
		if p < 0 || math.IsNaN(p) {
			return HyperExp{}, fmt.Errorf("dist: NewHyperExp negative or NaN probability %v", p)
		}
		if rates[i] <= 0 {
			return HyperExp{}, fmt.Errorf("dist: NewHyperExp branch %d has nonpositive rate %v", i, rates[i])
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return HyperExp{}, fmt.Errorf("dist: NewHyperExp probabilities sum to %v, want 1", sum)
	}
	return HyperExp{
		Ps:    append([]float64(nil), ps...),
		Rates: append([]float64(nil), rates...),
	}, nil
}

// Mean implements Distribution.
func (d HyperExp) Mean() float64 {
	m := 0.0
	for i, p := range d.Ps {
		m += p / d.Rates[i]
	}
	return m
}

// Var implements Distribution.
func (d HyperExp) Var() float64 {
	m := d.Mean()
	m2 := 0.0
	for i, p := range d.Ps {
		m2 += p * 2 / (d.Rates[i] * d.Rates[i])
	}
	return m2 - m*m
}

// Sample implements Distribution.
func (d HyperExp) Sample(s *rng.Stream) float64 {
	return s.Exp(d.Rates[s.Categorical(d.Ps)])
}

// CDF returns P(X ≤ x).
func (d HyperExp) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	total := 0.0
	for i, p := range d.Ps {
		total += p * (1 - math.Exp(-d.Rates[i]*x))
	}
	return total
}

func (d HyperExp) String() string { return fmt.Sprintf("HyperExp(%d branches)", len(d.Ps)) }
