package origin2000

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// docIdent is a backticked Go name in a document: Name, Type.Member or
// pkg.Name.Member, optionally called.
var docIdent = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*){0,2}(\(\))?$`)

// TestDocsNameOnlyWhatExists scans the design documents for backticked Go
// names and requires each to resolve in the module's Go files, test files
// and hostbench's included, so a doc cannot keep citing a deleted or
// misspelled identifier. A name counts when its last component starts
// with an upper-case letter and holds a lower-case one (QuiesSeq, not
// FFT); one qualified by a standard-library package that no package of
// the module shares a name with (json.Decoder) is skipped.
// hostbench/README.md is left out: only a change to the benchmark edits it.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	decls := moduleDecls(t)
	std := stdPackages(t)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", "GUIDELINES.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(b)) {
			if !docIdent.MatchString(span.text) {
				continue
			}
			parts := strings.Split(strings.TrimSuffix(span.text, "()"), ".")
			last := parts[len(parts)-1]
			if !unicode.IsUpper(rune(last[0])) || !strings.ContainsFunc(last, unicode.IsLower) {
				continue
			}
			if len(parts) > 1 && std[parts[0]] && decls.pkgs[parts[0]] == nil {
				continue
			}
			if !decls.resolves(parts) {
				t.Errorf("%s:%d: `%s` names nothing declared in the module", doc, span.line, span.text)
			}
		}
	}
}

// span is one inline code span of a document and the line it starts on.
type span struct {
	text string
	line int
}

// codeSpans returns the inline code spans of a Markdown document, outside
// fenced blocks.
func codeSpans(doc string) []span {
	var out []span
	fenced := false
	var prose strings.Builder
	var lines []int // the document line of each prose line
	for i, l := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(l + "\n")
			lines = append(lines, i+1)
		}
	}
	text := prose.String()
	parts := strings.Split(text, "`")
	at := 0
	for i, p := range parts {
		if i%2 == 1 {
			out = append(out, span{p, lines[strings.Count(text[:at], "\n")]})
		}
		at += len(p) + 1
	}
	return out
}

// decls indexes the names the module's Go files declare.
type decls struct {
	pkgs    map[string]map[string]bool // package name -> its top-level names
	members map[string]map[string]bool // "pkg.Type" and "Type" -> fields and methods
	any     map[string]bool            // every declared name, locals included
}

// resolves reports whether every component of a dotted name is declared:
// pkg.Name[.Member] against that package, anything else against the
// whole module.
func (d *decls) resolves(parts []string) bool {
	if top := d.pkgs[parts[0]]; top != nil && len(parts) > 1 {
		if !top[parts[1]] {
			return false
		}
		return len(parts) == 2 || d.members[parts[0]+"."+parts[1]][parts[2]]
	}
	if !d.any[parts[0]] {
		return false
	}
	if len(parts) > 1 {
		if ms := d.members[parts[0]]; ms != nil && !ms[parts[1]] {
			return false
		}
	}
	for _, p := range parts[1:] {
		if !d.any[p] {
			return false
		}
	}
	return true
}

// moduleDecls parses every Go file under the module root.
func moduleDecls(t *testing.T) *decls {
	t.Helper()
	d := &decls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, any: map[string]bool{}}
	member := func(pkg, typ, name string) {
		for _, k := range []string{typ, pkg + "." + typ} {
			if d.members[k] == nil {
				d.members[k] = map[string]bool{}
			}
			d.members[k][name] = true
		}
		d.any[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		top := d.pkgs[pkg]
		if top == nil {
			top = map[string]bool{}
			d.pkgs[pkg] = top
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					top[decl.Name.Name] = true
				} else if typ := recvType(decl.Recv.List[0].Type); typ != "" {
					member(pkg, typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range decl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						top[s.Name.Name] = true
						addMembers(s, func(name string) { member(pkg, s.Name.Name, name) })
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			for _, id := range declared(n) {
				d.any[id.Name] = true
			}
			return true
		})
		for name := range top {
			d.any[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// declared returns the names node n declares: a function's, a type's,
// values', fields' and parameters', or those on the left of :=.
func declared(n ast.Node) []*ast.Ident {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{n.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{n.Name}
	case *ast.ValueSpec:
		return n.Names
	case *ast.Field:
		return n.Names
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			var ids []*ast.Ident
			for _, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					ids = append(ids, id)
				}
			}
			return ids
		}
	}
	return nil
}

// addMembers reports the fields of a struct type and the methods of an
// interface type.
func addMembers(s *ast.TypeSpec, add func(string)) {
	var fields *ast.FieldList
	switch tt := s.Type.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			add(n.Name)
		}
		if len(f.Names) == 0 { // an embedded type is a member by its name
			if name := recvType(f.Type); name != "" {
				add(name)
			}
		}
	}
}

// recvType returns the type name of a method receiver or embedded field.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// stdPackages returns the last path element of every standard-library
// package.
func stdPackages(t *testing.T) map[string]bool {
	t.Helper()
	root := filepath.Join(build.Default.GOROOT, "src")
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		switch e.Name() {
		case "cmd", "vendor", "testdata", "internal":
			return filepath.SkipDir
		}
		std[e.Name()] = true
		return nil
	})
	if err != nil || len(std) < 100 {
		t.Fatalf("listing the standard library under %s: %d packages, %v", root, len(std), err)
	}
	return std
}
