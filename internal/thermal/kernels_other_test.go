//go:build !amd64

package thermal

import "runtime"

// vectorKernels returns the vector kernel sets this host supports:
// none off amd64.
func vectorKernels() (map[string]*denseKernels, []string) {
	return nil, []string{"GOARCH=" + runtime.GOARCH + " has no vector kernels"}
}
