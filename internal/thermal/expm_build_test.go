package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"thermbal/internal/floorplan"
)

// propagatorDigest is the SHA-256 over the raw IEEE-754 bits of
// (A, Bᵀ, c), little-endian, in that order.
func propagatorDigest(p *propagator) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range [][]float64{p.a, p.bt, p.c} {
		for _, v := range m {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The propagator goldens pin every bit a build produces on the real
// systems: the paper's 3-core die (sdr-radio) and the tiled 16- and
// 64-core dies (manycore-16/64) on both packages at the 10 ms sensor
// period, plus an odd 3.7 ms span whose scaling exponent and Taylor
// length differ. The digests were captured with the original i-k-j
// dense kernel; any change to the build's arithmetic must keep them.
func TestExpmPropagatorGolden(t *testing.T) {
	cases := []struct {
		name  string
		cores int
		pkg   Package
		dt    float64
		want  string
	}{
		{"sdr-radio/mobile", 3, MobileEmbedded(), 10e-3,
			"8a6cbe9df16457df23ee6cec349127a0fc30d357fda11c8bce55072d45a45950"},
		{"sdr-radio/highperf", 3, HighPerformance(), 10e-3,
			"5381937d861752d12b64b0505e97709cd0b3ee9f19c10d7d744cc7def0b85a06"},
		{"manycore-16/mobile", 16, MobileEmbedded(), 10e-3,
			"839640bdbf52b913f05988dd76c830518bc5eb0580a0e8135add5674c8198554"},
		{"manycore-16/highperf", 16, HighPerformance(), 10e-3,
			"7fe0bcd2ba27890bec4aa80b2d29d26178e403544adc30790820f525ac25dfb1"},
		{"manycore-16/mobile/3.7ms", 16, MobileEmbedded(), 3.7e-3,
			"66de6a771a1ef1a4632d07dcc0ddc85a10b395f22a158402b8599b5ac7d757a5"},
		{"manycore-64/mobile", 64, MobileEmbedded(), 10e-3,
			"8d4285491f53771949aa3838cbe1d0a15fb9eb74da47dc7a089f9bbf6a7d2618"},
		{"manycore-64/highperf", 64, HighPerformance(), 10e-3,
			"a5953a6deecef41c3fc622d4152d0bbdf20a08073833fb2f232e7d8299fbb119"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(floorplan.StreamingMPSoC(tc.cores), tc.pkg)
			if err != nil {
				t.Fatal(err)
			}
			e := &expmIntegrator{}
			e.bind(m.Net.View())
			if got := propagatorDigest(e.build(tc.dt)); got != tc.want {
				t.Errorf("propagator digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// matmulOracle is the original dense build kernel, kept as the
// reference the fast kernels must match bit for bit: dst = (x·y)·f in
// i-k-j order, skipping zero x entries. The float64 conversion pins the
// one-rounding-per-operation rule on every architecture.
func matmulOracle(dst, x, y []float64, n int, f float64) {
	for i := 0; i < n; i++ {
		di := dst[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		xi := x[i*n : i*n+n]
		for k := 0; k < n; k++ {
			v := xi[k]
			if v == 0 {
				continue
			}
			yk := y[k*n : k*n+n]
			for j, w := range yk {
				di[j] += float64(v * w)
			}
		}
		for j := range di {
			di[j] *= f
		}
	}
}

// kernelTestMatrix returns a seeded n×n matrix mixing the cases the
// bit-identity rule rests on: whole zero rows, scattered zero entries,
// negative values, and tiny magnitudes whose products underflow to
// subnormals or to ±0.
func kernelTestMatrix(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		if n > 1 && rng.Intn(5) == 0 {
			continue // zero row
		}
		for j := 0; j < n; j++ {
			switch r := rng.Intn(10); {
			case r < 3: // zero entry
			case r < 5:
				m[i*n+j] = -rng.Float64()
			case r < 6:
				m[i*n+j] = (rng.Float64() - 0.5) * 1e-160
			case r < 7:
				m[i*n+j] = math.Copysign(0, -1)
			default:
				m[i*n+j] = rng.NormFloat64() * 4
			}
		}
	}
	return m
}

// testKernels returns every kernel set this host runs, named: the
// portable Go kernels and each vector set the CPU supports, AVX
// included on AVX-512 hosts, where init does not select it. Tests call
// them all directly, in one process, and log why any set is missing.
func testKernels(t *testing.T) map[string]*denseKernels {
	sets, missing := vectorKernels()
	for _, why := range missing {
		t.Log(why)
	}
	out := map[string]*denseKernels{"go": &goKernels}
	for name, k := range sets {
		out[name] = k
	}
	return out
}

// The register-tiled dense kernels (Go, AVX, AVX-512) must match the
// original triple loop bit for bit on every shape: sizes of every
// residue mod 8, so both tile widths leave remainder columns, and row
// blocks of every length, so they leave remainder rows.
func TestExpmKernelsMatchOracle(t *testing.T) {
	ks := testKernels(t)
	rng := rand.New(rand.NewSource(14))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 387, 390}
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			x := kernelTestMatrix(rng, n)
			y := kernelTestMatrix(rng, n)
			want := make([]float64, n*n)
			got := make([]float64, n*n)

			matmulOracle(want, x, y, n, 1)
			for name, k := range ks {
				clear(got)
				k.matmul(got, x, y, matmulPanels(n), n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d trial %d: %s matmul[%d] = %v (%#x), oracle %v (%#x)", n, trial, name,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
				// The rows again in blocks of 1 to 9 rows, as a
				// worker's share may start or end anywhere.
				clear(got)
				for lo := 0; lo < n; {
					hi := min(n, lo+1+rng.Intn(9))
					k.matmulRows(got, x, y, matmulPanels(n), n, lo, hi)
					lo = hi
				}
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d trial %d: %s matmulRows in short blocks [%d] = %v (%#x), oracle %v (%#x)", n, trial, name,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
	// From n = 128 on, matmul splits the rows across workers. Each
	// product runs under several GOMAXPROCS values: its bits must not
	// depend on the worker count, nor on row blocks that start or end
	// on a row that is not a multiple of the tile height.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{127, 128, 129, 131, 195, 387} {
		x := kernelTestMatrix(rng, n)
		y := kernelTestMatrix(rng, n)
		want := make([]float64, n*n)
		matmulOracle(want, x, y, n, 1)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			for name, k := range ks {
				got := make([]float64, n*n)
				k.matmul(got, x, y, matmulPanels(n), n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d, %d workers: %s matmul[%d] = %v (%#x), oracle %v (%#x)", n, matmulWorkers(n), name,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// csr holds a square matrix's nonzeros in compressed sparse row form,
// columns ascending: the form the build's Taylor phase used before it
// gathered by columns, kept for taylorOracle.
type csr struct {
	rowPtr []int // row k's entries are col/val[rowPtr[k]:rowPtr[k+1]]
	col    []int
	val    []float64
}

// newCSR compresses the n×n row-major matrix m, dropping its zeros.
func newCSR(m []float64, n int) csr {
	s := csr{rowPtr: make([]int, n+1)}
	for k := 0; k < n; k++ {
		for j, v := range m[k*n : k*n+n] {
			if v != 0 {
				s.col = append(s.col, j)
				s.val = append(s.val, v)
			}
		}
		s.rowPtr[k+1] = len(s.col)
	}
	return s
}

// mulScaled computes dst = (x·H)·f for the n×n row-major x, where H is
// the receiver, in scatter form: row i of the product walks the
// nonzero entries x[i][k], k ascending, and scatters each into the
// columns where row k of H is nonzero.
func (h csr) mulScaled(dst, x []float64, f float64) {
	n := len(h.rowPtr) - 1
	for i := 0; i < n; i++ {
		di := dst[i*n : i*n+n]
		clear(di)
		for k, v := range x[i*n : i*n+n] {
			if v == 0 {
				continue
			}
			lo, hi := h.rowPtr[k], h.rowPtr[k+1]
			vals := h.val[lo:hi]
			for p, j := range h.col[lo:hi] {
				di[j] += float64(v * vals[p])
			}
		}
		for j := range di {
			di[j] *= f
		}
	}
}

// taylorOracle is the build's original Taylor phase, the reference the
// gathered, row-split csc.taylor must match bit for bit: it sums the
// series of (e^{H·h}, ∫₀^h e^{Hs} ds) for the dense n×n H on one
// goroutine, each term scattered by csr.mulScaled.
func taylorOracle(hd []float64, n int, h float64) (a, phi []float64) {
	hs := newCSR(hd, n)
	a, phi = make([]float64, n*n), make([]float64, n*n)
	term, next := make([]float64, n*n), make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 1
		phi[i*n+i] = h
		term[i*n+i] = 1
	}
	for k := 1; k <= expmMaxTerms; k++ {
		hs.mulScaled(next, term, h/float64(k))
		term, next = next, term
		f := h / float64(k+1)
		var maxAbs float64
		for i, t := range term {
			a[i] += t
			phi[i] += float64(t * f)
			maxAbs = max(maxAbs, math.Abs(t))
		}
		if maxAbs < 1e-18 {
			break
		}
	}
	return a, phi
}

// taylorTestMatrix returns a seeded sparse n×n H as a csc and densely:
// whole empty rows and columns, stored entries of ±0 (which the dense
// form's CSR drops and the csc keeps), subnormals, and mixed signs.
func taylorTestMatrix(rng *rand.Rand, n int) (csc, []float64) {
	emptyRow := make([]bool, n)
	for i := range emptyRow {
		emptyRow[i] = n > 1 && rng.Intn(6) == 0
	}
	h := csc{colPtr: make([]int, n+1)}
	hd := make([]float64, n*n)
	for j := 0; j < n; j++ {
		if n > 1 && rng.Intn(6) == 0 {
			h.colPtr[j+1] = len(h.row)
			continue // empty column
		}
		for i := 0; i < n; i++ {
			if emptyRow[i] || (i != j && rng.Intn(n) >= 6) {
				continue
			}
			var v float64
			switch r := rng.Intn(10); {
			case r < 2:
				v = math.Copysign(0, float64(1-2*rng.Intn(2)))
			case r < 3:
				v = float64(1-2*rng.Intn(2)) * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
			default:
				v = rng.NormFloat64()
			}
			h.row = append(h.row, i)
			h.val = append(h.val, v)
			hd[i*n+j] = v
		}
		h.colPtr[j+1] = len(h.row)
	}
	return h, hd
}

// The gathered Taylor phase must match the scatter-form oracle bit for
// bit on sparse matrices with empty rows and columns, stored ±0,
// subnormal and mixed-sign entries, whatever GOMAXPROCS is: at
// n = 387 its rows are split across one to three workers.
func TestExpmTaylorMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 21, 99, 387} {
		for trial := 0; trial < 2; trial++ {
			hs, hd := taylorTestMatrix(rng, n)
			// A step with ‖H‖·h near expmTheta, as the build scales it.
			h := 1.0
			if norm := hs.normInf(); norm > 0 {
				h = expmTheta / norm
			}
			wantA, wantPhi := taylorOracle(hd, n, h)
			for _, procs := range []int{1, 2, 3} {
				runtime.GOMAXPROCS(procs)
				a, phi := make([]float64, n*n), make([]float64, n*n)
				hs.taylor(a, phi, h)
				for _, c := range []struct {
					name      string
					got, want []float64
				}{{"a", a, wantA}, {"phi", phi, wantPhi}} {
					if i, ok := sameBits(c.got, c.want); !ok {
						t.Fatalf("n=%d trial %d, %d workers: %s[%d] = %v (%#x), oracle %v (%#x)", n, trial, matmulWorkers(n),
							c.name, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
					}
				}
			}
		}
	}
}

// edgeValue draws a float64 from the values IEEE arithmetic treats
// specially, with either sign: ±0, subnormals, magnitudes near 1e-300
// whose products underflow, rare magnitudes near 1e300 that swamp a
// sum and now and then overflow it, and ordinary values.
func edgeValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch r := rng.Intn(64); {
	case r < 8:
		return math.Copysign(0, sign)
	case r < 16:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case r < 24:
		return sign * 1e-300 * (1 + rng.Float64())
	case r < 26:
		return sign * 1e300 * (1 + rng.Float64())
	default:
		return sign * rng.Float64() * 4
	}
}

// sameOrNaN reports whether a and b hold identical float64 bit
// patterns or are both NaN (payloads are not compared), and the first
// index where they differ.
func sameOrNaN(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return 0, true
}

// The vector step kernels must return the Go kernels' bits: A·T over
// row blocks of every length mod 4 (the vector kernel runs four rows
// per call and leaves the rest to Go), then the B·P column updates, on
// inputs full of ±0, subnormals, ±1e±300 and mixed signs. A NaN in
// any input must give a NaN out wherever the Go kernels give one.
func TestExpmStepKernelsMatchGo(t *testing.T) {
	sets, missing := vectorKernels()
	if len(sets) == 0 {
		t.Skip("no vector kernels to compare: ", missing)
	}
	for name, k := range sets {
		t.Run(name, func(t *testing.T) { testStepKernels(t, k) })
	}
}

func testStepKernels(t *testing.T, kernels *denseKernels) {
	rng := rand.New(rand.NewSource(32))
	draw := func(n int, nan bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = edgeValue(rng)
		}
		if nan {
			v[rng.Intn(n)] = math.NaN()
		}
		return v
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 21, 387} {
		for trial := 0; trial < 4; trial++ {
			nan := trial == 3
			p := &propagator{a: draw(n*n, nan), bt: draw(n*n, nan), c: draw(n, nan)}
			temps, power := draw(n, nan), draw(n, nan)
			for rows := max(1, n-3); rows <= n; rows++ {
				want, got := make([]float64, rows), make([]float64, rows)
				goKernels.matvec(want, p.a, p.c, temps)
				kernels.matvec(got, p.a, p.c, temps)
				if i, ok := sameOrNaN(got, want); !ok {
					t.Fatalf("n=%d trial %d rows=%d: matvec[%d] = %v (%#x), go %v (%#x)", n, trial, rows,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			want, got := slices.Clone(temps), slices.Clone(temps)
			goKernels.step(p, want, power, make([]float64, n))
			kernels.step(p, got, power, make([]float64, n))
			if i, ok := sameOrNaN(got, want); !ok {
				t.Fatalf("n=%d trial %d: step[%d] = %v (%#x), go %v (%#x)", n, trial,
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// The propagator goldens again under one and three workers: the
// manycore-64 builds (n = 387) split their doubling products across
// matmulWorkers goroutines, and must keep every pinned bit either way.
// (The smaller dies stay on one goroutine whatever GOMAXPROCS is.)
func TestExpmPropagatorGoldenAnyGOMAXPROCS(t *testing.T) {
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			TestExpmPropagatorGolden(t)
		})
	}
}

// sameBits reports whether a and b hold identical float64 bit patterns,
// and the first index where they differ.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}
