package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"thermbal/internal/request"
)

// TestMain runs the command itself when THERMSIM_ARGS is set, so tests
// drive main in a child process (log.Fatal exits it).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("THERMSIM_ARGS"); ok {
		os.Args = append([]string{"thermsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// thermsim runs the command with args in a child process and returns
// its stdout and stderr and the error of a non-zero exit.
func thermsim(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "THERMSIM_ARGS="+strings.Join(args, " "))
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// wantExit fails unless err is a non-zero exit whose output contains
// every one of want.
func wantExit(t *testing.T, err error, out string, want ...string) {
	t.Helper()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("err %v, want a non-zero exit\n%s", err, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output does not contain %q:\n%s", w, out)
		}
	}
}

// TestRemovedIntegratorExits: an integrator this build no longer
// offers exits non-zero and names the supported schemes.
func TestRemovedIntegratorExits(t *testing.T) {
	_, stderr, err := thermsim("-integrator", "rk4", "-warmup", "0.1", "-measure", "0.1")
	wantExit(t, err, stderr, "euler | expm")
}

// TestTextReportMatchesJSON: the text report and the -json document
// resolve the same flags through one canonicalization, so the report's
// threshold (the scenario's default here) and outcome are the
// document's.
func TestTextReportMatchesJSON(t *testing.T) {
	flags := []string{"-scenario", "video-decoder", "-policy", "tb", "-warmup", "1", "-measure", "2"}
	text, stderr, err := thermsim(flags...)
	if err != nil {
		t.Fatalf("thermsim %v: %v\n%s", flags, err, stderr)
	}
	body, stderr, err := thermsim(append(flags, "-json")...)
	if err != nil {
		t.Fatalf("thermsim %v -json: %v\n%s", flags, err, stderr)
	}
	var doc request.RunDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("threshold        ±%.1f °C around the mean\n", doc.Request.Delta),
		fmt.Sprintf("deadline misses  %d of", doc.Result.QoS.DeadlineMisses),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report lacks %q (delta %g in the -json document):\n%s", want, doc.Request.Delta, text)
		}
	}
}

// TestMatrixUnknownScenarioExits: matrix axes resolve through
// request.CanonicalizeMatrix, so an unknown scenario exits non-zero
// with the catalogue, and a typo also gets a did-you-mean.
func TestMatrixUnknownScenarioExits(t *testing.T) {
	_, stderr, err := thermsim("-matrix", "-scenario", "bogus")
	wantExit(t, err, stderr, `unknown scenario "bogus"`, "known scenarios:")
	_, stderr, err = thermsim("-matrix", "-scenario", "sdr-radio,sdr-raido", "-policy", "tb")
	wantExit(t, err, stderr, `did you mean "sdr-radio"?`)
}

// TestMatrixRejectsSingleRunFlags: -no-fastpath and -profile act on
// one engine run, so -matrix refuses them instead of ignoring them.
func TestMatrixRejectsSingleRunFlags(t *testing.T) {
	for _, flag := range []string{"-no-fastpath", "-profile"} {
		_, stderr, err := thermsim("-matrix", flag, "-scenario", "sdr-radio", "-policy", "tb", "-warmup", "0.1", "-measure", "0.1")
		wantExit(t, err, stderr, "-json/-no-fastpath/-profile require a single run, not -matrix")
	}
}

// TestPolicyAllRejectsSingleRunFlags: -policy all runs every policy,
// so it refuses -no-fastpath and -profile instead of ignoring them.
func TestPolicyAllRejectsSingleRunFlags(t *testing.T) {
	for _, flag := range []string{"-no-fastpath", "-profile"} {
		_, stderr, err := thermsim("-policy", "all", flag, "-warmup", "0.1", "-measure", "0.1")
		wantExit(t, err, stderr, "-json/-no-fastpath/-profile require a single policy")
	}
}

// TestScenarioFilePathHint: a spec file passed to -scenario points at
// -scenario-file. The hint is the CLI's own: the request package it
// resolves runs through answers registry names only.
func TestScenarioFilePathHint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := thermsim("-scenario", path, "-warmup", "0.1", "-measure", "0.1")
	wantExit(t, err, stderr, "-scenario-file")
}

// TestNonFiniteInputsExit: a non-finite -delta, -warmup or -measure,
// or a window whose end tick overflows int64, exits non-zero in every
// mode instead of reporting a run over garbage.
func TestNonFiniteInputsExit(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "tb", "-delta", "NaN"}, "threshold delta NaN"},
		{[]string{"-warmup", "NaN"}, "warm-up NaN s is not finite"},
		{[]string{"-measure", "Inf"}, "measure window +Inf s is not finite"},
		{[]string{"-measure", "1e300"}, "overflows"},
		{[]string{"-policy", "all", "-warmup", "NaN"}, "warm-up NaN s is not finite"},
		{[]string{"-matrix", "-scenario", "sdr-radio", "-policy", "tb", "-delta", "NaN"}, "threshold delta NaN"},
	} {
		stdout, stderr, err := thermsim(c.args...)
		wantExit(t, err, stderr, c.want)
		if stdout != "" {
			t.Errorf("thermsim %v printed %q before failing", c.args, stdout)
		}
	}
}
