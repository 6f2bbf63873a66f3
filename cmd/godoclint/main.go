// Command godoclint is the repository's documentation and API gate.
// `make doclint` (wired into `make check` and CI) runs it as
//
//	godoclint -exported . -pkgdoc ./internal/... -pkgdoc ./cmd/... -unused-exports .
//
// -exported fails on an undocumented export of the thermbal facade, the
// repo's public API. -pkgdoc fails on a package with no package doc
// comment. -unused-exports type-checks the module and bench/ and fails
// on each exported internal/ function or method that no non-test file
// uses: a helper only tests need belongs in a _test.go file, in
// export_test.go for an external test package. Interface methods and a
// short allow-list are exempt. Test files are skipped. Exit status 1
// means at least one violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("godoclint: ")
	var (
		exported multiFlag
		pkgdoc   multiFlag
		unused   string
	)
	flag.Var(&exported, "exported", "package directory whose exported symbols must all carry doc comments (repeatable)")
	flag.Var(&pkgdoc, "pkgdoc", "package directory (or ./dir/... tree) that must carry a package doc comment (repeatable)")
	flag.StringVar(&unused, "unused-exports", "", "module root whose internal/ exports must each have a non-test use")
	flag.Parse()
	if len(exported) == 0 && len(pkgdoc) == 0 && unused == "" {
		log.Fatal("nothing to check: pass -exported, -pkgdoc and/or -unused-exports")
	}

	violations := 0
	for _, dir := range expand(exported) {
		violations += checkDir(dir, true)
	}
	for _, dir := range expand(pkgdoc) {
		violations += checkDir(dir, false)
	}
	if unused != "" {
		n, err := unusedExports(os.Stdout, unused, allowUnused)
		if err != nil {
			log.Fatal(err)
		}
		violations += n
	}
	if violations > 0 {
		log.Fatalf("%d violations", violations)
	}
	fmt.Println("godoclint: ok")
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// expand resolves each spec to package directories: a plain directory
// stays itself, a `dir/...` spec walks the tree for every directory
// containing .go files.
func expand(specs []string) []string {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, spec := range specs {
		root, recursive := strings.CutSuffix(spec, "/...")
		if !recursive {
			add(spec)
			continue
		}
		filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return nil
			}
			if base := d.Name(); strings.HasPrefix(base, ".") && path != root {
				return filepath.SkipDir
			}
			if entries, err := filepath.Glob(filepath.Join(path, "*.go")); err == nil && len(entries) > 0 {
				add(path)
			}
			return nil
		})
	}
	sort.Strings(dirs)
	return dirs
}

// checkDir parses one package directory. With wantExported, every
// exported top-level symbol needs a doc comment; either way, the
// package itself needs a package doc comment on exactly one file.
func checkDir(dir string, wantExported bool) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(info os.FileInfo) bool {
		return !strings.HasSuffix(info.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Printf("%s: parse: %v\n", dir, err)
		return 1
	}
	violations := 0
	for name, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			fmt.Printf("%s: package %s has no package doc comment\n", dir, name)
			violations++
		}
		if !wantExported {
			continue
		}
		for _, f := range pkg.Files {
			violations += checkFile(fset, f)
		}
	}
	return violations
}

// checkFile reports every exported top-level symbol in one file that
// carries no doc comment.
func checkFile(fset *token.FileSet, f *ast.File) int {
	violations := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: exported %s %s has no doc comment\n", fset.Position(pos), kind, name)
		violations++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					// Methods on unexported receivers are not part of
					// the public surface.
					if !receiverExported(d.Recv) {
						continue
					}
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					// A documented const/var block covers its members;
					// an inline comment on the spec also counts.
					if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, n := range sp.Names {
						if n.IsExported() {
							report(n.Pos(), "const/var", n.Name)
						}
					}
				}
			}
		}
	}
	return violations
}

// receiverExported reports whether a method's receiver type is
// exported.
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
