package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pkg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCheckDirExported(t *testing.T) {
	// Five violations: no package doc, undocumented exported type,
	// function, const, and method on an exported receiver. The
	// unexported symbols and the documented block are clean.
	dir := writePkg(t, `package p

type Exported struct{}

func (Exported) Method() {}

func (hidden) Visible() {} // method on unexported receiver: not public surface

type hidden struct{}

func Func() {}

const Answer = 42

// Documented group covers its members.
const (
	A = 1
	B = 2
)

func private() {}
`)
	if got := checkDir(dir, true); got != 5 {
		t.Errorf("checkDir(exported) = %d violations, want 5", got)
	}
}

func TestCheckDirPkgDocOnly(t *testing.T) {
	bad := writePkg(t, `package p

func Undocumented() {}
`)
	// Without -exported the only requirement is the package comment.
	if got := checkDir(bad, false); got != 1 {
		t.Errorf("checkDir(pkgdoc, missing) = %d, want 1", got)
	}
	good := writePkg(t, `// Package p does something.
package p

func Undocumented() {}
`)
	if got := checkDir(good, false); got != 0 {
		t.Errorf("checkDir(pkgdoc, present) = %d, want 0", got)
	}
}

func TestExpandRecursive(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "x.go"), []byte("package b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// root has no .go files, so only the leaf is returned.
	dirs := expand([]string{root + "/..."})
	if len(dirs) != 1 || dirs[0] != sub {
		t.Errorf("expand = %v, want [%s]", dirs, sub)
	}
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestUnusedExports(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module fix\n\ngo 1.24\n",
		"internal/p/p.go": `package p

type Server interface{ Serve() }

type T struct{}

func TestOnly() {}

func (T) Method() {}

func (T) Len() int { return 0 }

func (T) Serve() {}

func (T) String() string { return "t" }

type U struct{}

func (U) Len() int { return 1 }

func ForBench() {}

func ForExample() {}

func Allowed() {}
`,
		"internal/p/p_test.go": `package p

import "testing"

func TestP(t *testing.T) {
	TestOnly()
	T{}.Method()
	_ = T{}.Len()
}
`,
		// Excluded by its build constraint, so its call is no use.
		"internal/p/off.go": "//go:build never\n\npackage p\n\nfunc off() { TestOnly() }\n",
		// Unused, but test code: not the rule's business.
		"internal/p/export_test.go": "package p\n\nfunc Helper() {}\n",
		"examples/m/main.go": `package main

import "fix/internal/p"

func main() {
	p.ForExample()
	_ = p.U{}.Len()
}
`,
		// A sibling module, whose command imports it by its own path.
		"bench/go.mod":          "module fix/tools\n\ngo 1.24\n\nrequire fix v0.0.0\n\nreplace fix => ../\n",
		"bench/b.go":            "package tools\n\nimport \"fix/internal/p\"\n\nfunc B() { p.ForBench() }\n",
		"bench/cmd/run/main.go": "package main\n\nimport \"fix/tools\"\n\nfunc main() { tools.B() }\n",
	})
	var out strings.Builder
	n, err := unusedExports(&out, root, map[string]string{"p.Allowed": "kept on purpose"})
	if err != nil {
		t.Fatal(err)
	}
	// T.Len is flagged though U.Len, a different method of the same
	// name, is used; T.Serve (Server) and T.String (fmt.Stringer) serve
	// interfaces; ForBench is used by the sibling module alone and
	// ForExample by the examples/ main alone; Allowed is allow-listed.
	want := "internal/p/p.go:7 p.TestOnly\n" +
		"internal/p/p.go:9 p.T.Method\n" +
		"internal/p/p.go:11 p.T.Len\n"
	if got := out.String(); got != want || n != 3 {
		t.Errorf("unusedExports = %d findings:\n%s\nwant 3:\n%s", n, got, want)
	}
}
