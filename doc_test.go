package acn_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The documents whose code references must resolve. ROADMAP.md and
// CHANGES.md are not among them: they name planned and deleted code on
// purpose. benchmark/README.md joins once the benchmark module's text is
// next revised (ROADMAP item 2).
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// designMax bounds DESIGN.md: it keeps decisions about code that exists,
// and the measurements and history behind them stay in git and CHANGES.md.
const designMax = 40 << 10

// TestDocReferences resolves every backticked code reference in the checked
// documents, and every cite of a DESIGN.md title in them and in Go comments,
// against the parsed source of both modules. A failure reads
// DOC:line: ref: reason.
func TestDocReferences(t *testing.T) {
	ix := indexModules(t)
	var bad []string
	var counts refCounts
	titles := designTitles(readDoc(t, "DESIGN.md"))
	for _, doc := range checkedDocs {
		text := readDoc(t, doc)
		b, c := checkDoc(doc, text, ix, titles)
		bad = append(bad, b...)
		counts.add(c)
	}
	for _, c := range ix.comments {
		for _, m := range designCite.FindAllStringSubmatchIndex(c.text, -1) {
			counts.cites++
			cite := c.text[m[2]:m[3]]
			if !titles.match(cite) {
				line := c.line + strings.Count(c.text[:m[0]], "\n")
				bad = append(bad, fmt.Sprintf("%s:%d: DESIGN.md, %q: no DESIGN.md entry has this title", c.file, line, cite))
			}
		}
	}
	if fi, err := os.Stat("DESIGN.md"); err != nil {
		t.Fatal(err)
	} else if fi.Size() > designMax {
		bad = append(bad, fmt.Sprintf("DESIGN.md:1: size %d B: over the %d B bound; keep decisions, not measurements or history", fi.Size(), designMax))
	}
	for _, b := range bad {
		t.Error(b)
	}
	// The check must have something to check: a scanner that silently
	// stopped matching would pass every document.
	if counts.dotted < 30 || counts.tests < 80 || counts.files < 6 || counts.cites < 3 {
		t.Errorf("doc check resolved too little: %+v", counts)
	}
	t.Logf("resolved %+v", counts)
}

// TestDocCheckCatchesFaults feeds the checker one correct reference of every
// kind it reads, what it must skip (metric names, other packages, local
// variables, code blocks, a Retired section), and one document per fault.
func TestDocCheckCatchesFaults(t *testing.T) {
	ix := indexModules(t)
	titles := designTitles("# D\n\n## Heading one\n\n- **Freeze protocol (§2.2).** Text.\n")
	routeLine := 0
	src := readDoc(t, "internal/tree/route.go")
	for i, l := range strings.Split(src, "\n") {
		if strings.HasPrefix(l, "func CompileRoutes(") {
			routeLine = i + 1
		}
	}
	if routeLine == 0 {
		t.Fatal("CompileRoutes not found in internal/tree/route.go")
	}
	good := strings.Join([]string{
		"`tree.RouteTable.Locate`, `wire.(*Decoder).Ints`, `Row.Feeders`,",
		"`TestEnginesAgree`, `BenchmarkStep{Contended,Private}`,",
		"`TestCountingUnderFaulty*`, `dist/batch.go`, `route.go`.",
		fmt.Sprintf("`tree.CompileRoutes` is at `tree/route.go:%d`.", routeLine),
		"See DESIGN.md, \"Freeze protocol\", and DESIGN.md's \"Heading one\".",
		"`tcpnet.frames_per_write`, `dist.hop.seconds`, `runtime.newstack`, `cl.drainCh`.",
		"",
		"```",
		"output that names `tree.Gone`",
		"```",
		"",
		"## Retired",
		"",
		"`tree.Gone`, `TestGone`.",
		"",
		"## After",
		"",
	}, "\n")
	if b, _ := checkDoc("good.md", good, ix, titles); len(b) > 0 {
		t.Errorf("correct references refused:\n%s", strings.Join(b, "\n"))
	}
	faults := []string{
		"`tree.NoSuchFunc`",
		"`tree.RouteTable.NoSuchMethod`",
		"`RouteTable.NoSuchMethod`",
		"`TestNoSuchTest`",
		"`BenchmarkStep{Contended,Nope}`",
		"`nosuch/route.go`",
		"`nosuch.go`",
		fmt.Sprintf("`tree/route.go:%d`", routeLine),
		fmt.Sprintf("`tree.Locate` is at `tree/route.go:%d`.", routeLine),
		"DESIGN.md, \"A removed title\"",
	}
	for _, f := range faults {
		doc := "# Doc\n\nText " + f + " here.\n"
		b, _ := checkDoc("bad.md", doc, ix, titles)
		if len(b) != 1 || !strings.HasPrefix(b[0], "bad.md:3: ") {
			t.Errorf("fault %s: got %q, want one failure on bad.md:3", f, b)
		}
	}
	twoRetired := "# D\n\n## Retired a\n\n## Retired b\n"
	if b, _ := checkDoc("two.md", twoRetired, ix, titles); len(b) != 1 {
		t.Errorf("two Retired sections: got %q, want one failure", b)
	}
}

// moduleIndex is what the parsed source declares.
type moduleIndex struct {
	pkgs     map[string]map[string]bool // package name → top-level names
	pkgTypes map[string]map[string]bool // package name → its type names
	members  map[string]map[string]bool // type name → methods and fields
	embeds   map[string][]string        // type name → embedded type names
	tests    map[string]bool            // Test*, Benchmark*, Fuzz* funcs
	files    []string                   // slash paths of every .go file
	comments []comment
}

type comment struct {
	file string
	line int
	text string
}

// indexModules parses every .go file under the repository root, which
// holds both modules (the benchmark's is benchmark/), skipping hidden
// directories and testdata.
func indexModules(t *testing.T) *moduleIndex {
	t.Helper()
	ix := &moduleIndex{
		pkgs:     map[string]map[string]bool{},
		pkgTypes: map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embeds:   map[string][]string{},
		tests:    map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.addFile(fset, filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *moduleIndex) addFile(fset *token.FileSet, path string, f *ast.File) {
	ix.files = append(ix.files, path)
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
		ix.pkgTypes[pkg] = map[string]bool{}
	}
	names := ix.pkgs[pkg]
	member := func(typ, m string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][m] = true
	}
	fieldList := func(typ string, fl *ast.FieldList) {
		for _, fd := range fl.List {
			for _, n := range fd.Names {
				member(typ, n.Name)
			}
			if len(fd.Names) == 0 { // embedded
				if n := typeName(fd.Type); n != "" {
					member(typ, n)
					ix.embeds[typ] = append(ix.embeds[typ], n)
				}
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && len(d.Recv.List) == 1 {
				member(typeName(d.Recv.List[0].Type), d.Name.Name)
				continue
			}
			names[d.Name.Name] = true
			if strings.HasSuffix(path, "_test.go") && testFunc.MatchString(d.Name.Name) {
				ix.tests[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					ix.pkgTypes[pkg][s.Name.Name] = true
					if ix.members[s.Name.Name] == nil {
						ix.members[s.Name.Name] = map[string]bool{}
					}
					switch tt := s.Type.(type) {
					case *ast.Ident, *ast.SelectorExpr: // type T = U, type T U
						ix.embeds[s.Name.Name] = append(ix.embeds[s.Name.Name], typeName(tt))
					case *ast.StructType:
						fieldList(s.Name.Name, tt.Fields)
					case *ast.InterfaceType:
						fieldList(s.Name.Name, tt.Methods)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	for _, cg := range f.Comments {
		ix.comments = append(ix.comments, comment{path, fset.Position(cg.Pos()).Line, commentText(cg)})
	}
}

// commentText is a comment group's text, one source line per line, so a
// match's line number is the group's first line plus its newlines.
func commentText(cg *ast.CommentGroup) string {
	var b strings.Builder
	for i, c := range cg.List {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
	}
	return b.String()
}

// typeName is the name under pointers, type parameters and package
// qualifiers: *T, T[K], pkg.T → T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// hasMember reports whether type typ has member m, directly or promoted
// through an embedded type.
func (ix *moduleIndex) hasMember(typ, m string, depth int) bool {
	if ix.members[typ][m] {
		return true
	}
	if depth > 3 {
		return false
	}
	for _, e := range ix.embeds[typ] {
		if ix.hasMember(e, m, depth+1) {
			return true
		}
	}
	return false
}

func (ix *moduleIndex) hasFile(ref string) bool {
	for _, f := range ix.files {
		if f == ref || strings.HasSuffix(f, "/"+ref) {
			return true
		}
	}
	return false
}

func (ix *moduleIndex) fileLine(ref string, n int) (string, bool) {
	for _, f := range ix.files {
		if f == ref || strings.HasSuffix(f, "/"+ref) {
			b, err := os.ReadFile(f)
			if err != nil {
				return "", false
			}
			lines := strings.Split(string(b), "\n")
			if n < 1 || n > len(lines) {
				return "", false
			}
			return lines[n-1], true
		}
	}
	return "", false
}

// hasTest resolves a test or benchmark name: a subtest suffix (/sub) is
// dropped, a trailing * is a prefix and {a,b} lists alternatives.
func (ix *moduleIndex) hasTest(ref string) bool {
	ref, _, _ = strings.Cut(ref, "/")
	if i := strings.IndexByte(ref, '{'); i >= 0 && strings.HasSuffix(ref, "}") {
		for _, alt := range strings.Split(ref[i+1:len(ref)-1], ",") {
			if !ix.hasTest(ref[:i] + alt) {
				return false
			}
		}
		return true
	}
	if p, ok := strings.CutSuffix(ref, "*"); ok {
		for name := range ix.tests {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	return ix.tests[ref]
}

var (
	backtick   = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)*)`") // within a paragraph
	testFunc   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)([A-Z0-9_]|$)`)
	testRef    = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9][\w]*(\{[\w,]+\})?\*?(/\S*)?$`)
	fileRef    = regexp.MustCompile(`^([\w.-]+/)*[A-Za-z][\w.-]*\.go(:(\d+))?$`)
	dottedRef  = regexp.MustCompile(`^[A-Za-z]\w*(\.(\(\*?\w+\)|\w+))+$`)
	callSuffix = regexp.MustCompile(`^([\w.()*]+?)\([^()]*\)$`)
	lowerWord  = regexp.MustCompile(`^[a-z][a-z0-9]*$`)
	identWord  = regexp.MustCompile(`[A-Za-z_]\w{2,}`)
	heading    = regexp.MustCompile(`^(#+)\s+(.*)$`)
	designCite = regexp.MustCompile(`DESIGN\.md(?:,|'s)\s+"([^"]+)"`)
	entryTitle = regexp.MustCompile(`(?ms)^- \*\*(.+?)\*\*`)
)

type refCounts struct{ dotted, tests, files, lines, cites int }

func (c *refCounts) add(o refCounts) {
	c.dotted += o.dotted
	c.tests += o.tests
	c.files += o.files
	c.lines += o.lines
	c.cites += o.cites
}

// checkDoc returns one DOC:line: ref: reason per unresolved reference.
func checkDoc(doc, text string, ix *moduleIndex, titles designTitleSet) ([]string, refCounts) {
	var bad []string
	var counts refCounts
	lines := strings.Split(text, "\n")
	retired, level, fenced := 0, 0, false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = "" // a fence is neither code nor prose
			continue
		}
		if fenced {
			lines[i] = "" // code blocks hold output and commands, not references
			continue
		}
		if m := heading.FindStringSubmatch(l); m != nil {
			if level > 0 && len(m[1]) <= level {
				level = 0
			}
			if strings.Contains(strings.ToLower(m[2]), "retired") {
				retired++
				if retired > 1 {
					bad = append(bad, fmt.Sprintf("%s:%d: %s: a second Retired section; one per document", doc, i+1, m[2]))
				}
				level = len(m[1])
			}
		}
		if level > 0 {
			lines[i] = ""
		}
	}
	// What is left is prose, where a backticked span may wrap onto the next
	// line of its paragraph.
	prose := strings.Join(lines, "\n")
	lineOf := func(off int) int { return strings.Count(prose[:off], "\n") + 1 }
	for _, m := range backtick.FindAllStringSubmatchIndex(prose, -1) {
		ref := strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")
		reason, kind := checkRef(ref, ix)
		if kind == "line" && reason == "" {
			reason = checkLineCite(ref, sentence(prose, m[0]), ix)
		}
		switch kind {
		case "dotted":
			counts.dotted++
		case "test":
			counts.tests++
		case "file":
			counts.files++
		case "line":
			counts.lines++
		}
		if reason != "" {
			bad = append(bad, fmt.Sprintf("%s:%d: %s: %s", doc, lineOf(m[0]), ref, reason))
		}
	}
	for _, m := range designCite.FindAllStringSubmatchIndex(prose, -1) {
		counts.cites++
		if cite := prose[m[2]:m[3]]; !titles.match(cite) {
			bad = append(bad, fmt.Sprintf("%s:%d: DESIGN.md, %q: no DESIGN.md entry has this title", doc, lineOf(m[0]), cite))
		}
	}
	return bad, counts
}

// checkRef resolves one backticked span. kind is "" for a span the check
// does not read: prose, commands, metric names, non-module packages and
// local variables.
func checkRef(ref string, ix *moduleIndex) (reason, kind string) {
	if m := callSuffix.FindStringSubmatch(ref); m != nil && dottedRef.MatchString(m[1]) {
		ref = m[1]
	}
	switch {
	case fileRef.MatchString(ref):
		m := fileRef.FindStringSubmatch(ref)
		name := strings.TrimSuffix(ref, m[2])
		if !ix.hasFile(name) {
			return "no such file", "file"
		}
		if m[3] != "" {
			return "", "line"
		}
		return "", "file"
	case testRef.MatchString(ref):
		if !ix.hasTest(ref) {
			return "no such test, benchmark or fuzz target", "test"
		}
		return "", "test"
	case dottedRef.MatchString(ref):
		return checkDotted(ref, ix)
	}
	return "", ""
}

func checkDotted(ref string, ix *moduleIndex) (reason, kind string) {
	if strings.Contains(ref, "_") {
		return "", "" // a metric name
	}
	segs := strings.Split(ref, ".")
	for i, s := range segs {
		segs[i] = strings.Trim(s, "(*)")
	}
	if len(segs) >= 3 {
		metric := true
		for _, s := range segs[1:] {
			metric = metric && lowerWord.MatchString(s)
		}
		if metric {
			return "", "" // dist.hop.seconds
		}
	}
	if names, ok := ix.pkgs[segs[0]]; ok {
		if !names[segs[1]] {
			return fmt.Sprintf("package %s declares no %s", segs[0], segs[1]), "dotted"
		}
		if len(segs) >= 3 {
			if !ix.pkgTypes[segs[0]][segs[1]] {
				return fmt.Sprintf("%s.%s is not a type", segs[0], segs[1]), "dotted"
			}
			if !ix.hasMember(segs[1], segs[2], 0) {
				return fmt.Sprintf("type %s has no method or field %s", segs[1], segs[2]), "dotted"
			}
		}
		return "", "dotted"
	}
	if _, ok := ix.members[segs[0]]; ok {
		if !ix.hasMember(segs[0], segs[1], 0) {
			return fmt.Sprintf("type %s has no method or field %s", segs[0], segs[1]), "dotted"
		}
		return "", "dotted"
	}
	return "", ""
}

// checkLineCite holds file.go:N to a line that mentions an identifier
// backticked elsewhere in the same sentence.
func checkLineCite(ref, sent string, ix *moduleIndex) string {
	name, num, _ := strings.Cut(ref, ":")
	n, _ := strconv.Atoi(num)
	line, ok := ix.fileLine(name, n)
	if !ok {
		return fmt.Sprintf("%s has no line %d", name, n)
	}
	var idents []string
	for _, m := range backtick.FindAllStringSubmatch(sent, -1) {
		if m[1] == ref || fileRef.MatchString(m[1]) {
			continue
		}
		for _, w := range identWord.FindAllString(m[1], -1) {
			idents = append(idents, w)
			if strings.Contains(line, w) {
				return ""
			}
		}
	}
	if len(idents) == 0 {
		return "a bare line cite: name what the line holds in the same sentence"
	}
	return fmt.Sprintf("line %d names none of %s", n, strings.Join(idents, ", "))
}

// sentence is the sentence around byte offset off of prose: the text of
// its paragraph from the last full stop before off to the next after it.
// A line cite must name what it points at in its own sentence.
func sentence(prose string, off int) string {
	lo := strings.LastIndex(prose[:off], "\n\n") + 1
	hi := strings.Index(prose[off:], "\n\n")
	if hi < 0 {
		hi = len(prose)
	} else {
		hi += off
	}
	para := strings.ReplaceAll(prose[lo:hi], "\n", " ")
	pos := off - lo
	start := strings.LastIndex(para[:pos], ". ")
	end := strings.Index(para[pos:], ". ")
	if end < 0 {
		end = len(para) - pos
	}
	return para[start+1 : pos+end]
}

type designTitleSet []string

// designTitles lists DESIGN.md's headings and entry titles, whitespace
// collapsed.
func designTitles(text string) designTitleSet {
	var ts designTitleSet
	for _, l := range strings.Split(text, "\n") {
		if m := heading.FindStringSubmatch(l); m != nil {
			ts = append(ts, normTitle(m[2]))
		}
	}
	for _, m := range entryTitle.FindAllStringSubmatch(text, -1) {
		ts = append(ts, normTitle(m[1]))
	}
	sort.Strings(ts)
	return ts
}

// match reports whether a cite is the start of some title: a cite may
// shorten a long title, and may end in an ellipsis.
func (ts designTitleSet) match(cite string) bool {
	c := strings.TrimRight(normTitle(cite), ".,…")
	if c == "" {
		return false
	}
	for _, t := range ts {
		if strings.HasPrefix(t, c) {
			return true
		}
	}
	return false
}

func normTitle(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
