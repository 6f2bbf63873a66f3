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
// portable Go kernels and, on amd64 with AVX, the vector kernels init
// chose. Tests call both directly, in one process.
func testKernels(t *testing.T) map[string]*denseKernels {
	if kernels == &goKernels {
		t.Logf("only the Go kernels run here: %s", noAVXReason())
		return map[string]*denseKernels{"go": &goKernels}
	}
	return map[string]*denseKernels{"go": &goKernels, "avx": kernels}
}

// noAVXReason says why init kept the Go kernels.
func noAVXReason() string {
	if runtime.GOARCH != "amd64" {
		return "GOARCH=" + runtime.GOARCH + " has no AVX kernels"
	}
	return "CPUID or XGETBV reports no AVX support on this CPU and OS"
}

// The register-tiled dense kernels (Go and AVX) and the sparse Taylor
// product must match the original triple loop bit for bit on every
// shape, including sizes that leave remainder rows (n mod 4 ≠ 0) and
// remainder columns.
func TestExpmKernelsMatchOracle(t *testing.T) {
	ks := testKernels(t)
	rng := rand.New(rand.NewSource(14))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33, 390}
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			x := kernelTestMatrix(rng, n)
			y := kernelTestMatrix(rng, n)
			want := make([]float64, n*n)
			got := make([]float64, n*n)

			matmulOracle(want, x, y, n, 1)
			for name, k := range ks {
				clear(got)
				k.matmul(got, x, y, make([][4]float64, n), n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d trial %d: %s matmul[%d] = %v (%#x), oracle %v (%#x)", n, trial, name,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}

			f := 0.37 / float64(trial+1)
			matmulOracle(want, x, y, n, f)
			newCSR(y, n).mulScaled(got, x, f)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("n=%d trial %d: csr.mulScaled[%d] = %v (%#x), oracle %v (%#x)", n, trial,
					i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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
				k.matmul(got, x, y, make([][4]float64, matmulWorkers(n)*n), n)
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d, %d workers: %s matmul[%d] = %v (%#x), oracle %v (%#x)", n, matmulWorkers(n), name,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
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

// The AVX step kernels must return the Go kernels' bits: A·T over row
// blocks of every length mod 4 (the vector kernel runs four rows per
// call and leaves the rest to Go), then the B·P column updates, on
// inputs full of ±0, subnormals, ±1e±300 and mixed signs. A NaN in
// any input must give a NaN out wherever the Go kernels give one.
func TestExpmStepKernelsMatchGo(t *testing.T) {
	if kernels == &goKernels {
		t.Skip("no AVX kernels to compare: " + noAVXReason())
	}
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
					t.Fatalf("n=%d trial %d rows=%d: avx matvec[%d] = %v (%#x), go %v (%#x)", n, trial, rows,
						i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			want, got := slices.Clone(temps), slices.Clone(temps)
			goKernels.step(p, want, power, make([]float64, n))
			kernels.step(p, got, power, make([]float64, n))
			if i, ok := sameOrNaN(got, want); !ok {
				t.Fatalf("n=%d trial %d: avx step[%d] = %v (%#x), go %v (%#x)", n, trial,
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
