package request_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestDependencyGuard keeps request resolution below the server: the
// thermsim CLI, the library facade and the request layer itself build
// without linking the HTTP service, and thermsim also without the
// store, provenance and observability layers the service brings.
func TestDependencyGuard(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	forbidden := map[string][]string{
		"thermbal/cmd/thermsim":     {"service", "store", "provenance", "obs"},
		"thermbal":                  {"service", "obs"},
		"thermbal/internal/request": {"service"},
		"thermbal/internal/cliutil": {"service"},
	}
	args := []string{"list", "-e", "-f", `{{.ImportPath}}{{"\t"}}{{with .Error}}error: {{.}}{{else}}{{join .Deps " "}}{{end}}`}
	for pkg := range forbidden {
		args = append(args, pkg)
	}
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	deps := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, list, _ := strings.Cut(line, "\t")
		deps[pkg] = list
	}
	for pkg, bad := range forbidden {
		list, ok := deps[pkg]
		switch {
		case !ok:
			t.Errorf("go list did not report %s", pkg)
			continue
		case strings.HasPrefix(list, "error: "):
			t.Errorf("%s: %s", pkg, list)
			continue
		}
		linked := strings.Fields(list)
		for _, b := range bad {
			if slices.Contains(linked, "thermbal/internal/"+b) {
				t.Errorf("%s links thermbal/internal/%s", pkg, b)
			}
		}
	}
}
