package acn_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefilePatternsMatch holds every -run and -bench pattern of the
// Makefile's go test commands to the tests they name: each top-level
// alternative must match at least one Test (or Fuzz, Example) or Benchmark
// function declared in the packages the same command lists. go test passes
// without a word when a pattern matches nothing, so a renamed test would
// otherwise silently empty a gate. Build tags are ignored: the bubbled tests
// count although plain go test does not build them. A failure reads
// Makefile:line: reason.
func TestMakefilePatternsMatch(t *testing.T) {
	text, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	bad, alts := checkMakefile("Makefile", string(text), newTestDecls())
	for _, b := range bad {
		t.Error(b)
	}
	// The check must have something to check: a parser that silently stopped
	// finding patterns would pass every Makefile.
	if alts < 15 {
		t.Errorf("checked only %d pattern alternatives", alts)
	}
	t.Logf("checked %d pattern alternatives", alts)
}

// TestMakefileCheckCatchesFaults feeds the checker what it must accept
// (variables, $$, a cd, shell loops, the match-nothing idiom '^$') and one
// Makefile per fault.
func TestMakefileCheckCatchesFaults(t *testing.T) {
	decls := newTestDecls()
	good := strings.Join([]string{
		"GO ?= go",
		"ALTS = StepContended|StepPrivate",
		"PKGS = ./internal/component/ ./internal/tree/",
		"t:",
		"\t$(GO) test -run '^$$' -bench '$(ALTS)' $(PKGS)",
		"\t$(GO) test -run 'TestConcurrentSteps$$|^TestQuickPhi' -bench 'Step(Contended|Private)' $(PKGS)",
		"\tcd benchmark && $(GO) test -run TestVerdict ./...",
		"\tGOEXPERIMENT=synctest $(GO) test -run '^TestBubble' ./internal/dist/",
		"\t$(GO) test -run . -bench . ./internal/transport/...",
		"\t@for f in $$($(GO) test -list '^Fuzz' ./internal/wire/ | grep '^Fuzz'); do \\",
		"\t\t$(GO) test -run '^$$' -fuzz \"^$$f$$\" -fuzztime 2s ./internal/wire/ || exit 1; \\",
		"\tdone",
	}, "\n")
	if b, alts := checkMakefile("good", good, decls); len(b) > 0 || alts != 9 {
		t.Errorf("correct patterns refused or miscounted (%d alternatives):\n%s", alts, strings.Join(b, "\n"))
	}
	faults := []string{
		"$(GO) test -run '^$$' -bench 'Step(Contended|Private)|StepNope' ./internal/component/",
		"$(GO) test -run '$(ALTS)' ./internal/component/",
		"$(GO) test -run TestConcurrentSteps ./internal/tree/",
		"$(GO) test -bench TestConcurrentSteps ./internal/component/",
		"$(GO) test -run '^TestBubble(' ./internal/dist/",
		"$(GO) test -run X ./internal/nosuch/",
		"cd internal && $(GO) test -run TestConcurrentSteps ./internal/component/",
	}
	for _, f := range faults {
		mk := "GO ?= go\nALTS = TestConcurrentSteps|Nope\nt:\n\t" + f + "\n"
		b, _ := checkMakefile("bad", mk, decls)
		if len(b) != 1 || !strings.HasPrefix(b[0], "bad:4: ") {
			t.Errorf("fault %s: got %q, want one failure on bad:4", f, b)
		}
	}
}

var (
	makeVar  = regexp.MustCompile(`^([A-Za-z_]\w*)\s*(\?=|:=|=)\s*(.*)$`)
	funcKind = regexp.MustCompile(`^(Test|Fuzz|Example|Benchmark)([A-Z0-9_]|$)`)
)

// checkMakefile checks the go test patterns of a Makefile's recipes and
// returns one failure per alternative that matches nothing, and the number
// of alternatives it checked.
func checkMakefile(name, text string, decls *testDecls) (bad []string, alts int) {
	vars := map[string]string{}
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		lineNo, l := i+1, lines[i]
		for strings.HasSuffix(l, "\\") && i+1 < len(lines) {
			i++
			l = strings.TrimSuffix(l, "\\") + " " + strings.TrimPrefix(lines[i], "\t")
		}
		if !strings.HasPrefix(l, "\t") {
			if m := makeVar.FindStringSubmatch(l); m != nil {
				if _, set := vars[m[1]]; m[2] != "?=" || !set {
					vars[m[1]] = strings.TrimSpace(m[3])
				}
			}
			continue
		}
		dir := "."
		for _, cmd := range shellCommands(expandMake(l, vars, 0)) {
			if len(cmd) == 2 && cmd[0] == "cd" {
				dir = path.Join(dir, cmd[1])
				continue
			}
			for len(cmd) > 0 && strings.Contains(cmd[0], "=") { // VAR=value prefix
				cmd = cmd[1:]
			}
			if len(cmd) < 2 || cmd[0] != "go" || cmd[1] != "test" {
				continue
			}
			var pkgs []string
			type flagPat struct{ flag, pat string }
			var pats []flagPat
			for k := 2; k < len(cmd); k++ {
				w := cmd[k]
				if w == "." || strings.HasPrefix(w, "./") {
					p, tree := strings.CutSuffix(w, "/...")
					if p = path.Join(dir, p); tree {
						p += "/..."
					}
					pkgs = append(pkgs, p)
					continue
				}
				if (w == "-run" || w == "-bench") && k+1 < len(cmd) {
					k++
					pats = append(pats, flagPat{w, cmd[k]})
				}
			}
			if len(pkgs) == 0 {
				pkgs = []string{dir}
			}
			for _, p := range pats {
				for _, alt := range regexAlternatives(p.pat) {
					if alt == "^$" { // the idiom for "run none"
						continue
					}
					alts++
					re, err := regexp.Compile(alt)
					if err != nil {
						bad = append(bad, fmt.Sprintf("%s:%d: %s %q: %v", name, lineNo, p.flag, p.pat, err))
						continue
					}
					names, err := decls.names(pkgs, p.flag == "-bench")
					if err != nil {
						bad = append(bad, fmt.Sprintf("%s:%d: %v", name, lineNo, err))
						continue
					}
					matched := false
					for _, n := range names {
						if re.MatchString(n) {
							matched = true
							break
						}
					}
					if !matched {
						bad = append(bad, fmt.Sprintf("%s:%d: %s %q: alternative %q matches no function in %s",
							name, lineNo, p.flag, p.pat, alt, strings.Join(pkgs, " ")))
					}
				}
			}
		}
	}
	return bad, alts
}

// expandMake expands $(VAR) from vars (an unset variable is empty, as in
// make) and $$ to $.
func expandMake(s string, vars map[string]string, depth int) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '$' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		switch s[i+1] {
		case '$':
			b.WriteByte('$')
			i++
		case '(':
			end := strings.IndexByte(s[i+2:], ')')
			if end < 0 || depth > 8 {
				b.WriteString(s[i:])
				return b.String()
			}
			b.WriteString(expandMake(vars[s[i+2:i+2+end]], vars, depth+1))
			i += 2 + end
		default:
			b.WriteByte('$')
		}
	}
	return b.String()
}

// shellCommands splits a recipe line into commands, each a list of words
// with the shell's quotes removed. ;, &, | and the words do, then and else
// end a command; a leading @ or - is make's, not the shell's.
func shellCommands(line string) [][]string {
	line = strings.TrimLeft(line, "\t @-")
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord := false
	var quote byte
	endWord := func() {
		if inWord {
			cmd = append(cmd, word.String())
		}
		word.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(cmd) > 0 {
			cmds = append(cmds, cmd)
		}
		cmd = nil
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				word.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			endWord()
			if n := len(cmd); n == 1 && (cmd[0] == "do" || cmd[0] == "then" || cmd[0] == "else") {
				cmd = nil
			}
		case c == ';' || c == '&' || c == '|' || c == '(' || c == ')':
			endCmd()
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// regexAlternatives splits the part of a go test pattern that names
// top-level functions (before the first unbracketed /) at its top-level |.
func regexAlternatives(pat string) []string {
	var alts []string
	depth, start, class := 0, 0, false
	for i := 0; i < len(pat); i++ {
		switch c := pat[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && c == '|':
			alts = append(alts, pat[start:i])
			start = i + 1
		case depth == 0 && c == '/':
			return append(alts, pat[start:i])
		}
	}
	return append(alts, pat[start:])
}

// testDecls reads the test and benchmark functions a package directory
// declares, parsing its _test.go files whatever their build tags.
type testDecls struct {
	byDir map[string][]string
}

func newTestDecls() *testDecls { return &testDecls{byDir: map[string][]string{}} }

// names lists the functions of the packages pkgs (directories relative to
// the repository root, dir/... for a tree within dir's module) that a -run
// pattern selects, or with bench a -bench pattern.
func (d *testDecls) names(pkgs []string, bench bool) ([]string, error) {
	var out []string
	for _, p := range pkgs {
		dirs := []string{p}
		if root, ok := strings.CutSuffix(p, "/..."); ok {
			dirs = nil
			err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
				if err != nil || !e.IsDir() {
					return err
				}
				name := e.Name()
				if dir != root && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != root {
					return filepath.SkipDir // another module
				}
				dirs = append(dirs, filepath.ToSlash(dir))
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("package %s: %v", p, err)
			}
		}
		for _, dir := range dirs {
			fns, err := d.dir(dir)
			if err != nil {
				return nil, err
			}
			for _, fn := range fns {
				if (fn[0] == 'B') == bench {
					out = append(out, fn)
				}
			}
		}
	}
	return out, nil
}

func (d *testDecls) dir(dir string) ([]string, error) {
	if fns, ok := d.byDir[dir]; ok {
		return fns, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("package %s: %v", dir, err)
	}
	var fns []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && funcKind.MatchString(fd.Name.Name) {
				fns = append(fns, fd.Name.Name)
			}
		}
	}
	d.byDir[dir] = fns
	return fns, nil
}
