// Command doccheck is the godoc audit gate: it parses Go packages and fails
// when an exported identifier — type, function, method, or exported struct
// field — lacks a doc comment. CI's "Godoc audit" step runs it over the
// packages whose godoc the repo treats as API documentation; run it by hand
// over any package directory:
//
//	go run ./perf/doccheck internal/sim internal/netsim internal/sweep
//
// The checker is deliberately small (go/ast only, no type checking): it
// reads each non-test file, walks the declarations, and reports every
// undocumented exported name with its position. Grouped declarations
// (`var ( A = 1; B = 2 )`) pass when the group has a doc comment; an
// exported struct field passes with either its own doc comment or a trailing
// line comment.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir>...")
		os.Exit(2)
	}
	var problems []string
	for _, dir := range os.Args[1:] {
		p, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses every non-test .go file in dir and returns one problem
// line per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pkg := range pkgs {
		// Deterministic file order: map iteration would shuffle the report.
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			problems = append(problems, checkFile(fset, pkg.Files[name])...)
		}
	}
	return problems, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: undocumented exported %s %s",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
					if s.Name.IsExported() {
						problems = append(problems, checkFields(fset, s)...)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// checkFields reports undocumented exported fields of an exported struct
// type (interface methods ride the same shape: a field list of methods).
func checkFields(fset *token.FileSet, s *ast.TypeSpec) []string {
	var fields *ast.FieldList
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return nil
	}
	var problems []string
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				p := fset.Position(n.Pos())
				problems = append(problems, fmt.Sprintf("%s:%d: undocumented exported field %s.%s",
					filepath.ToSlash(p.Filename), p.Line, s.Name.Name, n.Name))
			}
		}
	}
	return problems
}
