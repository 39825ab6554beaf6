package apps

import (
	"fmt"
	"math"
	"os"
	"testing"

	"gosvm/internal/core"
	"gosvm/internal/mem"
)

// TestMain runs every application test — the golden results, the fault
// profiles and the 1440-cell crash matrix — with the object-lifetime checks
// on (mem.CheckFrames): a home-state write that bypasses
// hlrcEngine.homeWrite or a reader writing through a frame it shares, an
// answer written into the body of a Call that no longer waits, or a home
// applying a recycled diff record panics in the run that did it instead of
// corrupting another node's state.
func TestMain(m *testing.M) {
	mem.CheckFrames = true
	os.Exit(m.Run())
}

func seqRun(t *testing.T, app core.App) *core.Result {
	t.Helper()
	res, err := core.Run(core.Options{Protocol: core.ProtoSeq, Machine: core.Machine{Nodes: 1}, PageBytes: 1024}, app, false)
	if err != nil {
		t.Fatalf("seq %s: %v", app.Name(), err)
	}
	return res
}

func parRun(t *testing.T, app core.App, proto core.Protocol, p int) *core.Result {
	t.Helper()
	res, err := core.Run(core.Options{Protocol: proto, Machine: core.Machine{Nodes: p}, PageBytes: 1024}, app, false)
	if err != nil {
		t.Fatalf("%s/%s/p%d: %v", app.Name(), proto, p, err)
	}
	return res
}

// checkMatch compares parallel results against the sequential reference.
// tol 0 means bitwise equality.
func checkMatch(t *testing.T, name string, seq, par []float64, tol float64) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: result sizes differ: %d vs %d", name, len(seq), len(par))
	}
	bad := 0
	for i := range seq {
		if tol == 0 {
			if math.Float64bits(seq[i]) != math.Float64bits(par[i]) {
				bad++
				if bad < 4 {
					t.Errorf("%s: word %d: seq %v par %v", name, i, seq[i], par[i])
				}
			}
			continue
		}
		d := math.Abs(seq[i] - par[i])
		scale := math.Max(1, math.Abs(seq[i]))
		if d/scale > tol {
			bad++
			if bad < 4 {
				t.Errorf("%s: word %d: seq %v par %v (rel %g)", name, i, seq[i], par[i], d/scale)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%s: %d/%d words mismatched", name, bad, len(seq))
	}
}

// validateApp runs the app under every protocol and processor count and
// checks the result against the sequential reference.
func validateApp(t *testing.T, mk func() core.App, tol float64, procs []int) {
	seq := seqRun(t, mk())
	for _, proto := range core.Protocols {
		for _, p := range procs {
			proto, p := proto, p
			t.Run(fmt.Sprintf("%s/p%d", proto, p), func(t *testing.T) {
				par := parRun(t, mk(), proto, p)
				checkMatch(t, fmt.Sprintf("%s/%s/p%d", mk().Name(), proto, p), seq.Data, par.Data, tol)
			})
		}
	}
}

func TestLUMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewLU(SizeTest) }, 0, []int{2, 4, 8})
}

func TestSORMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewSOR(SizeTest, false) }, 0, []int{2, 4, 8})
}

func TestSORZeroMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewSOR(SizeTest, true) }, 0, []int{4})
}

func TestWaterNsqMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewWaterNsq(SizeTest) }, 1e-9, []int{2, 4, 8})
}

func TestWaterSpMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewWaterSp(SizeTest) }, 1e-9, []int{2, 4, 8})
}

func TestRaytraceMatchesSequential(t *testing.T) {
	validateApp(t, func() core.App { return NewRaytrace(SizeTest) }, 0, []int{2, 4, 8})
}

// LU must actually factorize: reconstruct L*U and compare with the
// original matrix.
func TestLUFactorizationCorrect(t *testing.T) {
	app := NewLU(SizeTest)
	res := seqRun(t, app)
	n := app.N
	// Rebuild the original matrix with the same generator as Init.
	orig := make([]float64, n*n)
	rng := newLCG(12345)
	nb := n / app.B
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			for ii := 0; ii < app.B; ii++ {
				for jj := 0; jj < app.B; jj++ {
					i, j := bi*app.B+ii, bj*app.B+jj
					v := rng.float() - 0.5
					if i == j {
						v += float64(n)
					}
					orig[i*n+j] = v
				}
			}
		}
	}
	// The result is block-major; convert to row-major L and U.
	fac := make([]float64, n*n)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			blk := res.Data[(bi*nb+bj)*app.B*app.B:]
			for ii := 0; ii < app.B; ii++ {
				for jj := 0; jj < app.B; jj++ {
					fac[(bi*app.B+ii)*n+bj*app.B+jj] = blk[ii*app.B+jj]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k <= min(i, j); k++ {
				l := fac[i*n+k]
				if k == i {
					l = 1
				}
				if k > i {
					l = 0
				}
				u := fac[k*n+j]
				if k > j {
					u = 0
				}
				sum += l * u
			}
			if math.Abs(sum-orig[i*n+j]) > 1e-8*float64(n) {
				t.Fatalf("LU reconstruction wrong at (%d,%d): %v vs %v", i, j, sum, orig[i*n+j])
			}
		}
	}
}

// SOR must relax towards smooth values: after iterations, interior values
// stay within the initial value range (maximum principle).
func TestSORMaximumPrinciple(t *testing.T) {
	app := NewSOR(SizeTest, false)
	res := seqRun(t, app)
	for i, v := range res.Data {
		if v < 0 || v > 1 {
			t.Fatalf("SOR value %d out of [0,1]: %v", i, v)
		}
	}
}

// The zero-initialized SOR variant must keep deep-interior elements at
// zero for the first iterations (the property the paper's §4.8 experiment
// relies on).
func TestSORZeroInterior(t *testing.T) {
	// Influence from the boundary moves inward about two points per
	// red-black iteration; pick a grid deep enough that the center stays
	// untouched.
	app := &SOR{H: 64, W: 64, Iters: 4, ElemNs: 100, ZeroInit: true}
	res := seqRun(t, app)
	mid := (app.H / 2 * app.hw) + app.hw/2
	if res.Data[mid] != 0 {
		t.Fatalf("deep interior changed after %d iterations: %v", app.Iters, res.Data[mid])
	}
}

// Water energy sanity: forces must be finite and symmetric enough that
// momentum stays bounded.
func TestWaterNsqFiniteAndMomentum(t *testing.T) {
	app := NewWaterNsq(SizeTest)
	res := seqRun(t, app)
	var px, py, pz float64
	for i := 0; i < app.N; i++ {
		for d := 0; d < molWords; d++ {
			v := res.Data[i*molWords+d]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("molecule %d word %d not finite: %v", i, d, v)
			}
		}
		px += res.Data[i*molWords+3]
		py += res.Data[i*molWords+4]
		pz += res.Data[i*molWords+5]
	}
	// Pairwise antisymmetric forces conserve momentum (starting at rest).
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-9 {
		t.Fatalf("momentum not conserved: (%g, %g, %g)", px, py, pz)
	}
}

// Water-Spatial: cell lists must remain a partition of the molecules.
func TestWaterSpListsArePartition(t *testing.T) {
	app := NewWaterSp(SizeTest)
	res := parRun(t, app, core.ProtoHLRC, 4)
	_ = res
	// The gather returns molecule data; membership is implied by
	// positions. Verify every position is inside the box.
	for i := 0; i < app.N; i++ {
		for d := 0; d < 3; d++ {
			v := res.Data[i*molWords+d]
			if v < 0 || v > app.Box {
				t.Fatalf("molecule %d escaped the box: %v", i, v)
			}
		}
	}
}

// Raytrace must produce a non-trivial image (spheres actually hit).
func TestRaytraceImageNontrivial(t *testing.T) {
	app := NewRaytrace(SizeTest)
	res := seqRun(t, app)
	distinct := map[float64]bool{}
	for _, v := range res.Data {
		distinct[v] = true
		if math.IsNaN(v) {
			t.Fatal("NaN pixel")
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("image has only %d distinct values", len(distinct))
	}
}

func TestGridHelpers(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		r, c := grid2(p)
		if r*c != p || r > c {
			t.Fatalf("grid2(%d) = %dx%d", p, r, c)
		}
		x, y, z := grid3(p)
		if x*y*z != p {
			t.Fatalf("grid3(%d) = %dx%dx%d", p, x, y, z)
		}
	}
	if x, y, z := grid3(64); x != 4 || y != 4 || z != 4 {
		t.Fatalf("grid3(64) = %dx%dx%d, want 4x4x4", x, y, z)
	}
}

func TestChunkCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		for _, p := range []int{1, 3, 8} {
			covered := 0
			prev := 0
			for id := 0; id < p; id++ {
				lo, hi := chunk(n, p, id)
				if lo != prev {
					t.Fatalf("chunk(%d,%d,%d) gap: lo=%d prev=%d", n, p, id, lo, prev)
				}
				covered += hi - lo
				prev = hi
			}
			if covered != n {
				t.Fatalf("chunk(%d,%d) covers %d", n, p, covered)
			}
		}
	}
}

func TestLCGDeterministic(t *testing.T) {
	a, b := newLCG(1), newLCG(1)
	for i := 0; i < 100; i++ {
		if a.float() != b.float() {
			t.Fatal("lcg not deterministic")
		}
	}
	r := newLCG(2)
	for i := 0; i < 1000; i++ {
		v := r.float()
		if v < 0 || v >= 1 {
			t.Fatalf("lcg out of range: %v", v)
		}
	}
}

func TestNewRegistry(t *testing.T) {
	for _, name := range append(append([]string{}, Names...), "sor-zero") {
		app, err := New(name, SizeTest)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if app.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, app.Name())
		}
	}
	for _, name := range []string{"nope", "fft"} { // fft was deleted in PR 23
		if _, err := New(name, SizeTest); err == nil {
			t.Fatalf("unknown app %q did not error", name)
		}
	}
}
