package lincount

// TestPublicAPI pins the exported surface of package lincount and of
// internal/server (the query server lincountd and the benchmark
// configure): every exported constant, variable, function, type and
// method, rendered as gofmt'd Go without doc comments or bodies, is
// compared with testdata/api.golden and testdata/server_api.golden.
// Growing or changing either API — a new Config knob included — shows
// up as a reviewable golden diff. Regenerate with
//
//	go test -run TestPublicAPI -update .

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the API goldens in testdata with the current APIs")

func TestPublicAPI(t *testing.T) {
	for _, c := range []struct{ dir, pkg, golden string }{
		{".", "lincount", "testdata/api.golden"},
		{"internal/server", "server", "testdata/server_api.golden"},
	} {
		got, err := renderAPI(c.dir, c.pkg)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(c.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			wl, gl := lineSet(string(want)), lineSet(string(got))
			var diff strings.Builder
			for _, l := range strings.Split(string(want), "\n") {
				if !gl[l] {
					diff.WriteString("- " + l + "\n")
				}
			}
			for _, l := range strings.Split(string(got), "\n") {
				if !wl[l] {
					diff.WriteString("+ " + l + "\n")
				}
			}
			t.Errorf("%s API differs from %s (regenerate with -update if intended):\n%s", c.pkg, c.golden, diff.String())
		}
	}
}

func lineSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, l := range strings.Split(s, "\n") {
		m[l] = true
	}
	return m
}

// renderAPI renders the exported declarations of package name in dir.
func renderAPI(dir, name string) ([]byte, error) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, name)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.WriteString("package " + name + "\n\n")
	emit := func(decl ast.Decl) {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn := *d
			fn.Doc, fn.Body = nil, nil
			decl = &fn
		case *ast.GenDecl:
			gd := *d
			gd.Doc = nil
			decl = &gd
		}
		// Doc comments are dropped, so the blank lines that separated them
		// are too; gofmt realigns what is left below.
		var b bytes.Buffer
		printer.Fprint(&b, fset, decl)
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.TrimSpace(line) != "" {
				out.WriteString(line + "\n")
			}
		}
		out.WriteString("\n")
	}
	for _, v := range pkg.Consts {
		emit(v.Decl)
	}
	for _, v := range pkg.Vars {
		emit(v.Decl)
	}
	for _, f := range pkg.Funcs {
		emit(f.Decl)
	}
	for _, typ := range pkg.Types {
		emit(typ.Decl)
		for _, v := range typ.Consts {
			emit(v.Decl)
		}
		for _, v := range typ.Vars {
			emit(v.Decl)
		}
		for _, f := range typ.Funcs {
			emit(f.Decl)
		}
		for _, f := range typ.Methods {
			emit(f.Decl)
		}
	}
	return format.Source(out.Bytes())
}
