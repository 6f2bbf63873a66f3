package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when FIGURES_ARGS is set, so tests
// drive main in a child process (log.Fatal exits it).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FIGURES_ARGS"); ok {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// figures runs the command with args in a child process and returns
// its stdout and stderr and the error of a non-zero exit.
func figures(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FIGURES_ARGS="+strings.Join(args, " "))
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// TestAllArtifactsGolden pins the SHA-256 of the full default output:
// Tables 1-2, Figures 2 and 7-11, the Section 5 narrative, the
// ablations and the many-core scale table, in that order.
func TestAllArtifactsGolden(t *testing.T) {
	const digest = "5ff1151efff481cdef588281bed104d216fd8cbc1bd0597367ea18542fdda0ec"
	stdout, stderr, err := figures()
	if err != nil {
		t.Fatalf("figures: %v\n%s", err, stderr)
	}
	sum := sha256.Sum256([]byte(stdout))
	if got := hex.EncodeToString(sum[:]); got != digest {
		t.Errorf("figures stdout digest %s, golden %s:\n%s", got, digest, stdout)
	}
}

// TestUnknownArtifactExits: an -only name outside the artifact table
// exits non-zero and lists the known artifacts instead of printing
// nothing.
func TestUnknownArtifactExits(t *testing.T) {
	for _, only := range []string{"bogus", "fig7,bogus", "matrix"} {
		stdout, stderr, err := figures("-only", only)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("-only %s: err %v, want a non-zero exit\n%s", only, err, stderr)
		}
		if stdout != "" {
			t.Errorf("-only %s printed %q before failing", only, stdout)
		}
		const want = "known artifacts: table1, table2, fig2, fig7, fig8, fig9, fig10, fig11, narrative, ablations, scale"
		if !strings.Contains(stderr, want) {
			t.Errorf("-only %s: stderr lacks %q:\n%s", only, want, stderr)
		}
	}
}

// TestScenarioHeader: a -scenario run names the swept scenario and its
// topology above the figures, as the sweep figures' workload is no
// longer the paper's.
func TestScenarioHeader(t *testing.T) {
	stdout, stderr, err := figures("-only", "fig9", "-deltas", "3", "-scenario", "video-decoder")
	if err != nil {
		t.Fatalf("figures: %v\n%s", err, stderr)
	}
	if !strings.HasPrefix(stdout, "scenario: video-decoder (") || !strings.Contains(stdout, "\n\nFigure 9") {
		t.Errorf("no scenario header above Figure 9:\n%s", stdout)
	}
}

// TestNonFiniteDeltaExits: a -deltas entry that is not finite exits
// non-zero instead of printing a row of zeros.
func TestNonFiniteDeltaExits(t *testing.T) {
	_, stderr, err := figures("-only", "fig7", "-deltas", "NaN")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-deltas NaN: err %v, want a non-zero exit\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "threshold delta NaN") {
		t.Errorf("-deltas NaN: stderr does not name the delta:\n%s", stderr)
	}
}
