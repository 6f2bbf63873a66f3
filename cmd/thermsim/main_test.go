package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRemovedIntegratorExits runs the command in a child process with
// an integrator this build no longer offers: it must exit non-zero and
// name the supported schemes.
func TestRemovedIntegratorExits(t *testing.T) {
	if os.Getenv("THERMSIM_MAIN") == "1" {
		os.Args = []string{"thermsim", "-integrator", "rk4", "-warmup", "0.1", "-measure", "0.1"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedIntegratorExits$")
	cmd.Env = append(os.Environ(), "THERMSIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("thermsim -integrator rk4: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "euler | expm") {
		t.Errorf("thermsim -integrator rk4 output does not name euler and expm:\n%s", out)
	}
}
