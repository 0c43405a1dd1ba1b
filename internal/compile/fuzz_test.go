package compile

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"es/internal/syntax"
)

// FuzzCompile: Compile is total.  Anything syntax.Parse accepts must
// compile, both as parsed (surface nodes included) and after Rewrite,
// to a non-nil unit with a nil error, registering a non-nil unit for
// every nested block, and without panicking.  Seeded with FuzzParse's
// seeds and its on-disk corpus.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"ls > /tmp/foo",
		"a | b && c || d &",
		"fn apply cmd args {for (i = $args) $cmd $i}",
		"let (x = a; y = b) {echo $x $y}",
		"catch @ e msg {throw $e} {body}",
		"echo <>{car <>{cdr $p}} `{date} $#x $$y $^z",
		"x = ({a} 'q w' $v(1 2) pre$mid.suf)",
		"~ $subj a* [b-d]? 'lit'",
		"%pipe {a} 1 0 {b} >[2=1] <<< here",
		"; ; \n\n # comment\n",
		"'unterminated",
		"{unclosed",
		"$",
		"a ^^ b",
		"fn-%x = $&y",
	}
	for _, s := range append(seeds, parseCorpus(f)...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		b, err := syntax.Parse(src)
		if err != nil {
			return
		}
		reg := func(sb *syntax.Block, su *Unit) {
			if su == nil {
				t.Errorf("nested block of %q registered a nil unit", src)
			}
		}
		for _, tree := range []*syntax.Block{b, syntax.Rewrite(b).(*syntax.Block)} {
			if u, err := Compile(tree, reg); u == nil || err != nil {
				t.Fatalf("Compile(%q) = %v, %v; want a unit and no error", src, u, err)
			}
		}
	})
}

// parseCorpus reads the string inputs of FuzzParse's corpus, so every
// input that once broke the parser also seeds the compiler.
func parseCorpus(f *testing.F) []string {
	files, err := filepath.Glob("../syntax/testdata/fuzz/FuzzParse/*")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		if !ok {
			f.Fatalf("%s: not a single-string corpus entry", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		f.Fatal("FuzzParse corpus not found")
	}
	return out
}
