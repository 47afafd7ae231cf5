package obs

import (
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

// catalogKinds maps the obs constructors to the kind their names take
// in OBSERVABILITY.md.
var catalogKinds = map[string]string{
	"C": "counter", "G": "gauge", "H": "histogram", "T": "timer",
	"Emit": "event", "Start": "span",
}

// codeNames collects every name the non-test Go files under the given
// directories pass to obs.C, G, H, T, Emit and Start, keyed by
// "kind name". A name built by concatenation reads "<>" for each
// operand that is not a string literal.
func codeNames(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	names := map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			self := f.Name.Name == "obs" // the package calls itself unqualified
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"repro/internal/obs"` {
					local = "obs"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var fn string
				switch f := call.Fun.(type) {
				case *ast.SelectorExpr:
					if x, ok := f.X.(*ast.Ident); ok && local != "" && x.Name == local {
						fn = f.Sel.Name
					}
				case *ast.Ident:
					if self {
						fn = f.Name
					}
				}
				kind, ok := catalogKinds[fn]
				if !ok || len(call.Args) == 0 {
					return true
				}
				arg := call.Args[0]
				if fn == "Start" {
					if len(call.Args) < 2 {
						return true
					}
					arg = call.Args[1]
				}
				// A name with no literal prefix is a span's own count or
				// duration, catalogued with the span.
				if name, ok := nameOf(arg); ok && !strings.HasPrefix(name, "<>") {
					names[kind+" "+name] = fset.Position(call.Pos()).String()
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// nameOf renders a string literal, or a concatenation holding at least
// one, with "<>" for every operand that is not a literal.
func nameOf(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, lok := nameOf(e.X)
		r, rok := nameOf(e.Y)
		if !lok && !rok {
			return "", false
		}
		if !lok {
			l = "<>"
		}
		if !rok {
			r = "<>"
		}
		return l + r, true
	}
	return "", false
}

var (
	catalogRow  = regexp.MustCompile("^\\| (`[^|]*`) \\| (span|counter|gauge|histogram|timer) \\|")
	catalogName = regexp.MustCompile("`([^`]+)`")
	eventName   = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`")
	placeholder = regexp.MustCompile(`<[^>]*>`)
	bracePart   = regexp.MustCompile(`\{([^{}]*)\}`)
)

// catalogNames reads the catalog of OBSERVABILITY.md, keyed by "kind
// name". Metrics and spans are table rows; a row may name several, brace
// patterns expand ("a.{count,duration}" is two names) and a placeholder
// such as "<route>" reads "<>". A span row names the span itself: its
// ".{count,duration}" suffix is the pair of metrics every span records.
// Events are the dotted names in backticks of a paragraph that opens
// with "Events:" or "Lifecycle events:".
func catalogNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, para := range strings.Split(string(b), "\n\n") {
		if strings.HasPrefix(para, "Events:") || strings.HasPrefix(para, "Lifecycle events:") {
			for _, m := range eventName.FindAllStringSubmatch(para, -1) {
				names["event "+m[1]] = true
			}
		}
	}
	for _, line := range strings.Split(string(b), "\n") {
		m := catalogRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		kind := m[2]
		for _, nm := range catalogName.FindAllStringSubmatch(m[1], -1) {
			name := nm[1]
			if kind == "span" {
				name = strings.TrimSuffix(name, ".{count,duration}")
			}
			for _, n := range expandBraces(placeholder.ReplaceAllString(name, "<>")) {
				names[kind+" "+n] = true
			}
		}
	}
	return names
}

// expandBraces expands every {a,b,...} group of s.
func expandBraces(s string) []string {
	loc := bracePart.FindStringSubmatchIndex(s)
	if loc == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(s[:loc[0]]+alt+s[loc[1]:])...)
	}
	return out
}

// TestMetricsCatalogMatchesCode checks OBSERVABILITY.md against the
// code: every metric, span and event name that internal/ and cmd/ pass
// to obs has a catalog row of its kind, and every catalog row names
// something the code still records.
func TestMetricsCatalogMatchesCode(t *testing.T) {
	code := codeNames(t, filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd"))
	catalog := catalogNames(t, filepath.Join("..", "..", "OBSERVABILITY.md"))
	if len(code) < 100 || len(catalog) < 100 {
		t.Fatalf("found %d names in the code and %d in the catalog; the scan is broken", len(code), len(catalog))
	}
	var missing, stale []string
	for k, pos := range code {
		if !catalog[k] {
			missing = append(missing, k+" ("+pos+")")
		}
	}
	for k := range catalog {
		if _, ok := code[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("no OBSERVABILITY.md catalog entry for %s", m)
	}
	for _, s := range stale {
		t.Errorf("OBSERVABILITY.md catalogs %s, which no code under internal/ or cmd/ records", s)
	}
}
