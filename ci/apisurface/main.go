// Command apisurface prints the exported API surface of the package in
// the directory it is given (the repository's root package, optsync, by
// default) as one sorted, canonical line per declaration — functions,
// methods, types, exported struct fields, interface methods, consts, and
// vars.
//
// It is the network-free engine of ci/apidiff_gate.sh: the gate compares
// this output against the committed baseline in ci/api_baseline.txt and
// fails CI when a baseline line disappears (a breaking change to the
// public surface), and compares internal/gwc's against
// ci/gwc_api_baseline.txt line for line. Pure go/ast over the checked-out tree — no module
// downloads, no type checking, so it runs in a sandboxed CI step.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strings"
)

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	lines, err := surface(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apisurface:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
}

var spaces = regexp.MustCompile(`\s+`)

// render pretty-prints an AST node on one whitespace-normalized line.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, node)
	return spaces.ReplaceAllString(buf.String(), " ")
}

// surface parses the package in dir (tests excluded) and returns its
// exported declarations as sorted canonical lines.
func surface(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv != nil {
						recv := render(fset, d.Recv.List[0].Type)
						// Methods on unexported types are not public surface.
						if !ast.IsExported(strings.TrimLeft(recv, "*")) {
							continue
						}
						add("method (%s) %s%s", recv, d.Name.Name, signature(fset, d.Type))
						continue
					}
					add("func %s%s", d.Name.Name, signature(fset, d.Type))
				case *ast.GenDecl:
					genDecl(fset, d, add)
				}
			}
		}
	}
	sort.Strings(lines)
	// The parser can hand us duplicates only if a file is listed twice;
	// dedupe anyway so the output is a set.
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out, nil
}

// signature renders a FuncType without the leading "func" keyword.
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	return strings.TrimPrefix(render(fset, ft), "func")
}

func genDecl(fset *token.FileSet, d *ast.GenDecl, add func(string, ...any)) {
	switch d.Tok {
	case token.CONST, token.VAR:
		kind := "const"
		if d.Tok == token.VAR {
			kind = "var"
		}
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			typ := ""
			if vs.Type != nil {
				typ = " " + render(fset, vs.Type)
			}
			for _, name := range vs.Names {
				if name.IsExported() {
					add("%s %s%s", kind, name.Name, typ)
				}
			}
		}
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			typeSpec(fset, ts, add)
		}
	}
}

func typeSpec(fset *token.FileSet, ts *ast.TypeSpec, add func(string, ...any)) {
	name := ts.Name.Name
	switch t := ts.Type.(type) {
	case *ast.StructType:
		add("type %s struct", name)
		for _, f := range t.Fields.List {
			ftyp := render(fset, f.Type)
			if len(f.Names) == 0 {
				// Embedded field: exported if its (possibly pointered,
				// possibly qualified) terminal name is.
				term := ftyp[strings.LastIndexByte(ftyp, '.')+1:]
				if ast.IsExported(strings.TrimLeft(term, "*")) {
					add("field %s.%s (embedded)", name, ftyp)
				}
				continue
			}
			for _, fn := range f.Names {
				if fn.IsExported() {
					add("field %s.%s %s", name, fn.Name, ftyp)
				}
			}
		}
	case *ast.InterfaceType:
		add("type %s interface", name)
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				add("ifacemethod %s.(embedded %s)", name, render(fset, m.Type))
				continue
			}
			for _, mn := range m.Names {
				if mn.IsExported() {
					add("ifacemethod %s.%s%s", name, mn.Name, signature(fset, m.Type.(*ast.FuncType)))
				}
			}
		}
	default:
		eq := ""
		if ts.Assign.IsValid() {
			eq = "= "
		}
		add("type %s %s%s", name, eq, render(fset, ts.Type))
	}
}
