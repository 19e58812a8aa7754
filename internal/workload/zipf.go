// Package workload generates the request streams of the paper's
// evaluation (§5): YCSB-style uniform and zipfian key popularity over a
// configurable key space, fixed value sizes for the microbenchmarks, and
// the Facebook ETC pool's trimodal size distribution for the production
// workload. All generators are deterministic under a seed.
package workload

import "math"

// Zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^theta, using the
// Gray et al. transformation that YCSB's ZipfianGenerator implements.
// For very large n the harmonic normalizer is approximated by its
// integral tail, so construction stays O(min(n, zetaExact)).
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// zetaExact bounds the exactly-summed prefix of the harmonic series.
const zetaExact = 1 << 20

// NewZipf creates a zipfian distribution over [0, n) with skew theta
// (the paper uses YCSB's default 0.99).
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: zipf over empty range")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zeta computes (or approximates, beyond zetaExact) the generalized
// harmonic number H_{n,theta}.
func zeta(n uint64, theta float64) float64 {
	m := n
	if m > zetaExact {
		m = zetaExact
	}
	sum := 0.0
	for i := uint64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > m {
		// Integral approximation of the tail: ∫ x^-θ dx over [m, n].
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// Next maps a uniform u ∈ [0,1) to a zipfian rank (0 = most popular).
func (z *Zipf) Next(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
