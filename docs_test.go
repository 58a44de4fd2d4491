package sigstream

// A documentation quality gate: every exported identifier in every package
// of this module must carry a doc comment (deliverable (e): "doc comments
// on every public item"). The test walks the source with go/ast so a
// missing comment fails CI rather than slipping into a release.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "results" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					missing = append(missing, posOf(fset, d.Pos())+" func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							missing = append(missing, posOf(fset, s.Pos())+" type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								missing = append(missing,
									posOf(fset, n.Pos())+" value "+n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestNoConstructorBypassesNewBaseline keeps the constructor surface to
// one entry point: NewBaseline (plus the NewWindow extension) is the only
// exported root-package New* function that returns a Tracker, so a new
// baseline cannot grow a positional constructor of its own.
func TestNoConstructorBypassesNewBaseline(t *testing.T) {
	sanctioned := map[string]bool{"NewBaseline": true, "NewWindow": true}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if !strings.HasPrefix(fd.Name.Name, "New") || !returnsTracker(fd) {
				continue
			}
			if !sanctioned[fd.Name.Name] {
				t.Errorf("%s: exported constructor %s bypasses NewBaseline; "+
					"construct through NewBaseline(kind, Config) instead",
					posOf(fset, fd.Pos()), fd.Name.Name)
			}
		}
	}
}

// returnsTracker reports whether a function's results include the plain
// Tracker interface.
func returnsTracker(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "Tracker" {
			return true
		}
	}
	return false
}

func posOf(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	rel, err := filepath.Rel(mustGetwd(), pos.Filename)
	if err != nil {
		rel = pos.Filename
	}
	return rel + ":" + itoa(pos.Line)
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [12]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
