package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when THERMLOAD_ARGS is set, so tests
// drive main in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("THERMLOAD_ARGS"); ok {
		os.Args = append([]string{"thermload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnusableRateIsUsageError: a rate no run can honour exits 2 with
// a message naming it, in either mode, before any request is sent.
func TestUnusableRateIsUsageError(t *testing.T) {
	for _, args := range []string{"-rps NaN -addr http://127.0.0.1:1", "-rps +Inf -self", "-rps 0"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "THERMLOAD_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("thermload %s: err %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "rps =") || strings.Contains(string(out), "panic") {
			t.Errorf("thermload %s: output does not name the rate:\n%s", args, out)
		}
	}
}
