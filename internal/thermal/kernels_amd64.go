package thermal

// The AVX and AVX-512 forms of the dense kernels (see the kernel notes
// in expm.go). The assembly in kernels_amd64.s computes only whole
// tiles and lane groups: a 4×4 (AVX) or 4×8 (AVX-512) tile of a build
// product, the four lane chains of four A·T rows, and four columns of
// B·P. These wrappers bound the slices the assembly reads and leave
// every remainder, and A·T's reduction and tail, to the portable Go
// code, so the forms share those lines.

var (
	// avxKernels run on hosts with AVX: ymm build tiles and step.
	avxKernels = denseKernels{matmulRows: matmulRowsAVX, matvec: matvecAVX, axpy: axpyAVX}
	// avx512Kernels run on hosts with AVX-512F: zmm build tiles and the
	// AVX step, which is bound by memory, not by its arithmetic.
	avx512Kernels = denseKernels{matmulRows: matmulRowsAVX512, matvec: matvecAVX, axpy: axpyAVX}

	hasAVX    = cpuHasAVX()
	hasAVX512 = hasAVX && cpuHasAVX512()
)

func init() {
	switch {
	case hasAVX512:
		kernels = &avx512Kernels
	case hasAVX:
		kernels = &avxKernels
	}
}

// cpuHasAVX reports whether the CPU has AVX and the OS saves the ymm
// registers (CPUID's AVX and OSXSAVE bits, XCR0's XMM and YMM bits).
func cpuHasAVX() bool

// cpuHasAVX512 reports, on a host where cpuHasAVX holds, whether the
// CPU has AVX-512F (CPUID leaf 7, EBX bit 16) and the OS saves the
// opmask and zmm registers (XCR0 bits 1, 2, 5, 6 and 7).
func cpuHasAVX512() bool

// matmulTile4 sets t[r][j] to the sum over k of x[r·n+k]·panel[k][j],
// for the four rows from x and the four panel columns.
//
//go:noescape
func matmulTile4(t *[4][4]float64, x *float64, panel *[4]float64, n int)

// matmulTile4x8 sets t[r][j] to the sum over k of x[r·n+k]·y[k][j],
// for the four rows from x and the eight columns of the panel, which
// holds row k's columns in panel[2k] and panel[2k+1].
//
//go:noescape
func matmulTile4x8(t *[4][8]float64, x *float64, panel *[4]float64, n int)

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

// matmulRowsAVX512 is matmulRows with 4×8 tiles over 8-column panels.
// A last row group or panel that would run short instead overlaps the
// one before it: each element it recomputes gets the same bits, so
// storing it twice changes nothing, and no tile is partial. Blocks of
// fewer than four rows and products narrower than eight columns take
// the AVX kernel.
func matmulRowsAVX512(dst, x, y []float64, panel [][4]float64, n, lo, hi int) {
	if n < 8 || hi-lo < 4 {
		matmulRowsAVX(dst, x, y, panel, n, lo, hi)
		return
	}
	x, panel = x[:hi*n], panel[:2*n]
	for jb := 0; jb < n; jb += 8 {
		j0 := min(jb, n-8)
		for k := 0; k < n; k++ {
			yk := y[k*n+j0 : k*n+j0+8]
			copy(panel[2*k][:], yk[:4])
			copy(panel[2*k+1][:], yk[4:])
		}
		for ib := lo; ib < hi; ib += 4 {
			i := min(ib, hi-4)
			var t [4][8]float64
			matmulTile4x8(&t, &x[i*n], &panel[0], n)
			for r := range t {
				copy(dst[(i+r)*n+j0:(i+r)*n+j0+8], t[r][:])
			}
		}
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
