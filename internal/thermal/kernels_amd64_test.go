package thermal

// vectorKernels returns the vector kernel sets this host supports, by
// name, and why each set it does not support is missing.
func vectorKernels() (sets map[string]*denseKernels, missing []string) {
	sets = map[string]*denseKernels{}
	if hasAVX {
		sets["avx"] = &avxKernels
	} else {
		missing = append(missing, "no avx kernels: CPUID or XGETBV reports no AVX support on this CPU and OS")
	}
	if hasAVX512 {
		sets["avx512"] = &avx512Kernels
	} else {
		missing = append(missing, "no avx512 kernels: CPUID or XGETBV reports no AVX-512F support on this CPU and OS")
	}
	return sets, missing
}
