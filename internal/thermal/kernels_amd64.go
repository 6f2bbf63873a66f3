package thermal

// The AVX forms of the dense kernels (see the kernel notes in expm.go).
// The assembly in kernels_amd64.s computes only whole groups of four:
// a 4×4 tile of a build product, the four lane chains of four A·T
// rows, and four columns of B·P. These wrappers bound the slices the
// assembly reads and leave every remainder, and A·T's reduction and
// tail, to the portable Go code, so the two forms share those lines.

func init() {
	if cpuHasAVX() {
		kernels = &denseKernels{matmulRows: matmulRowsAVX, matvec: matvecAVX, axpy: axpyAVX}
	}
}

// cpuHasAVX reports whether the CPU has AVX and the OS saves the ymm
// registers (CPUID's AVX and OSXSAVE bits, XCR0's XMM and YMM bits).
func cpuHasAVX() bool

// matmulTile4 sets t[r][j] to the sum over k of x[r·n+k]·panel[k][j],
// for the four rows from x and the four panel columns.
//
//go:noescape
func matmulTile4(t *[4][4]float64, x *float64, panel *[4]float64, n int)

// matvecLanes4 sets s[r][l] to the sum over the j < m with j ≡ l
// (mod 4) of a[r·n+j]·t[j], for the four rows from a; m is a positive
// multiple of four.
//
//go:noescape
func matvecLanes4(s *[4][4]float64, a, t *float64, n, m int)

// axpyLanes adds x[i]·w to y[i] for i < m, a positive multiple of four.
//
//go:noescape
func axpyLanes(y, x *float64, w float64, m int)

// matmulRowsAVX is matmulRows with 4×4 tiles; the last hi−lo mod 4
// rows take the portable tiles.
func matmulRowsAVX(dst, x, y []float64, panel [][4]float64, n, lo, hi int) {
	x, panel = x[:hi*n], panel[:n]
	for j0 := 0; j0 < n; j0 += 4 {
		w := packPanel(panel, y, n, j0)
		i := lo
		for ; i+4 <= hi; i += 4 {
			var t [4][4]float64
			matmulTile4(&t, &x[i*n], &panel[0], n)
			for r := range t {
				copy(dst[(i+r)*n+j0:(i+r)*n+j0+w], t[r][:])
			}
		}
		matmulTiles(dst, x, panel, n, j0, w, i, hi)
	}
}

// matvecAVX is matvec with the lane chains of four rows per call,
// sharing their t loads; the last len(y) mod 4 rows take the portable
// kernel.
func matvecAVX(y, a, c, t []float64) {
	n, m := len(t), len(t)&^3
	a = a[:len(y)*n]
	i := 0
	for ; m > 0 && i+4 <= len(y); i += 4 {
		var s [4][4]float64
		matvecLanes4(&s, &a[i*n], &t[0], n, m)
		for r := range s {
			k := (i + r) * n
			y[i+r] = finishRow(c[i+r], s[r], a[k:k+n], t, m)
		}
	}
	matvec(y[i:], a[i*n:], c[i:], t)
}

// axpyAVX is axpy four elements at a time; the last len(x) mod 4 take
// the portable kernel.
func axpyAVX(y, x []float64, w float64) {
	y = y[:len(x)]
	m := len(x) &^ 3
	if m > 0 {
		axpyLanes(&y[0], &x[0], w, m)
	}
	axpy(y[m:], x[m:], w)
}
