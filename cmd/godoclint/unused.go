package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// allowUnused names the exports kept without a non-test use, and why.
var allowUnused = map[string]string{
	"thermal.Network.TotalHeatContent": "one side of the RC energy-balance invariant the engine checks are to assert",
	"thermal.Network.AmbientOutflow":   "the other side of that invariant",
}

// stdProtocols holds error, fmt.Stringer and the unnamed interfaces
// errors.Is, As and Unwrap assert: the library calls methods via them.
const stdProtocols = `package protocols; import "fmt"
type (_ error; _ fmt.Stringer; _ interface{ Is(error) bool }; _ interface{ As(any) bool }; _ interface{ Unwrap() error })`

var moduleLine = regexp.MustCompile(`(?m)^module\s+"?([^"\s]+)`)

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unusedExports writes to w, in directory-walk order, a "file:line
// package.Name" line for each exported function or method in the
// internal/ packages of the module at root that no non-test file of it
// or of a module nested in it uses, and returns the count. go/build
// picks the files (build tags hold), go/types resolves each use (a
// shared name is no false use), and the standard library is checked
// from source, offline. Exempt are the names in allow and the methods
// that serve an interface the code declares or names, or stdProtocols.
func unusedExports(w io.Writer, root string, allow map[string]string) (int, error) {
	fset := token.NewFileSet()
	protocols, _ := parser.ParseFile(fset, "protocols.go", stdProtocols, 0) // a constant that parses
	files := map[string][]*ast.File{"protocols": {protocols}}               // by import path
	importPath := map[string]string{}                                       // by directory
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		path := importPath[filepath.Dir(dir)] + "/" + d.Name()
		gomod, _ := os.ReadFile(filepath.Join(dir, "go.mod")) // most directories have none
		if m := moduleLine.FindSubmatch(gomod); m != nil {
			path = string(m[1])
		}
		importPath[dir] = path
		bp, err := build.Default.ImportDir(dir, 0)
		if _, noGo := err.(*build.NoGoError); err != nil && !noGo {
			return err
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			files[path] = append(files[path], f)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	// One check per package: one types.Object per declaration.
	std, pkgs, infos := importer.ForCompiler(fset, "source", nil), map[string]*types.Package{}, map[string]*types.Info{}
	used, ifaces := map[types.Object]bool{}, []*types.Interface(nil)
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if pkg, ok := pkgs[path]; ok {
			return pkg, nil
		} else if files[path] == nil {
			return std.Import(path)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: load}).Check(path, fset, files[path], info)
		pkgs[path], infos[path] = pkg, info
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		return pkg, err
	}
	for path := range files {
		if _, err := load(path); err != nil {
			return 0, err
		}
	}

	var found []*types.Func
	internal := importPath[root] + "/internal/"
	for path, info := range infos {
		for _, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if ok && strings.HasPrefix(path+"/", internal) && fn.Exported() && !used[fn] && !implements(fn, ifaces) && allow[qualName(fn)] == "" {
				found = append(found, fn)
			}
		}
	}
	slices.SortFunc(found, func(a, b *types.Func) int { return cmp.Compare(a.Pos(), b.Pos()) })
	for _, fn := range found {
		pos := fset.Position(fn.Pos())
		rel, _ := filepath.Rel(root, pos.Filename) // the walk put root in front
		fmt.Fprintf(w, "%s:%d %s\n", filepath.ToSlash(rel), pos.Line, qualName(fn))
	}
	return len(found), nil
}

// implements reports whether fn is an interface method or serves one.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	ptr := recv.Type() // *T's method set holds T's too
	if _, ok := ptr.(*types.Pointer); !ok {
		ptr = types.NewPointer(ptr)
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil && types.Implements(ptr, it) {
			return true
		}
	}
	return types.IsInterface(recv.Type())
}

// qualName qualifies fn's name with its package and receiver: "bus.Bus.Bandwidth".
func qualName(fn *types.Func) string {
	s := strings.NewReplacer("(", "", ")", "", "*", "").Replace(fn.FullName())
	return s[strings.LastIndex(s, "/")+1:]
}
