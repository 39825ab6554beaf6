package apps

import (
	"math"
	"math/rand"
	"testing"
)

// matmulSubOneK is matmulSub's reference: the i-k-j loop one k at a time,
// skipping a zero a[i][k].
func matmulSubOneK(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] -= aik * b[k*n+j]
			}
		}
	}
}

// TestMatmulSubMatchesOneKAtATime: four k at a time gives the one-k loop's
// bits, on sizes with and without a tail, with a zero (+0 or -0) at each
// position of a group of four, Inf and NaN in b behind those zeros, and
// c holding -0 (which a zero product would turn into +0).
func TestMatmulSubMatchesOneKAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 3, 8, 32, 33} {
		for round := 0; round < 20; round++ {
			a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
			for i := range a {
				a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
				switch rng.Intn(8) {
				case 0:
					c[i] = negZero
				case 1:
					b[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
				}
			}
			for i := 0; i < n; i++ {
				// Row i's zeros: none, or one at position round%4 of
				// each group, or a random scatter of +0 and -0.
				for k := 0; k < n; k++ {
					switch {
					case round%3 == 1 && k%4 == round%4:
						a[i*n+k] = 0
					case round%3 == 2 && rng.Intn(3) == 0:
						a[i*n+k] = []float64{0, negZero}[rng.Intn(2)]
					}
				}
			}
			want := append([]float64(nil), c...)
			matmulSubOneK(want, a, b, n)
			matmulSub(c, a, b, n)
			for i := range c {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d round %d: c[%d] = %v (%#x), one k at a time %v (%#x)",
						n, round, i, c[i], math.Float64bits(c[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkMatmulSub times one interior block update at B = 32.
func BenchmarkMatmulSub(b *testing.B) {
	const n = 32
	rng := rand.New(rand.NewSource(1))
	x, y, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range x {
		x[i], y[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmulSub(c, x, y, n)
	}
}
