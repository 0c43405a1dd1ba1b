package compile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"es/internal/syntax"
)

// FuzzCompile: Compile is total on rewritten trees.  Anything
// syntax.Parse accepts must, once syntax.Rewrite has lowered it to the
// core forms (the only trees Compile takes), compile with its source to
// a non-nil unit with a nil error, without panicking, into one program
// whose every operand stays inside its table.  Every lambda and
// substitution body has one unit of its own in that same program, and
// every unit a tree, derived from the source, that lowers to as many
// instructions as the unit runs.  Seeded with FuzzParse's seeds and its
// on-disk corpus.
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
		u, err := Compile(syntax.Rewrite(b).(*syntax.Block), &src)
		if u == nil || err != nil {
			t.Fatalf("Compile(%q) = %v, %v; want a unit and no error", src, u, err)
		}
		if err := validate(u.Prog); err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		if err := globKinds(u.Prog); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
		if err := units(u); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
		if err := trees(u.Prog); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	})
}

// trees checks that every unit of p pairs with its tree: the tree Tree
// derives for it lowers, as a block of its own, to a run as long as the
// unit's.
func trees(p *Program) error {
	for k := range p.Units {
		u := &p.Units[k]
		tree := u.Tree()
		if tree == nil {
			return fmt.Errorf("unit %d has no tree", k)
		}
		again, _ := Compile(tree, nil)
		if again.Seq.Len != u.Seq.Len {
			return fmt.Errorf("unit %d runs %d instructions, its tree lowers to %d", k, u.Seq.Len, again.Seq.Len)
		}
	}
	return nil
}

// units checks the units of root's program: root is the first, every
// lambda and substitution segment names a unit of its own, so that there
// is one unit per nested body, and every unit is in the program.
func units(root *Unit) error {
	p := root.Prog
	if root != &p.Units[0] {
		return errors.New("the root is not its program's first unit")
	}
	named := make([]bool, len(p.Units))
	nested := 0
	for _, s := range p.Segs {
		if s.Kind != SegLambda && s.Kind != SegCmdSub && s.Kind != SegRetSub {
			continue
		}
		nested++
		if s.Ref < 1 || int(s.Ref) >= len(named) || named[s.Ref] {
			return fmt.Errorf("a body segment names unit %d, the root or a unit named already", s.Ref)
		}
		named[s.Ref] = true
		if s.Kind != SegLambda && p.Units[s.Ref].Params.Set() {
			return fmt.Errorf("segment kind %d names unit %d, which has parameters", s.Kind, s.Ref)
		}
	}
	if nested != len(p.Units)-1 {
		return fmt.Errorf("%d nested bodies, %d nested units", nested, len(p.Units)-1)
	}
	for k := range p.Units {
		if p.Units[k].Prog != p {
			return fmt.Errorf("unit %d is outside its program", k)
		}
	}
	return nil
}

// validate checks that every operand of a program indexes inside the
// table it names, that every piece's text lies inside Text, and that
// names are neither Wild nor Prim.
func validate(p *Program) error {
	span := func(what string, s Span, n int) error {
		if s.Off < 0 || s.Len < 0 || int(s.Off)+int(s.Len) > n {
			return fmt.Errorf("%s span %+v outside a table of %d", what, s, n)
		}
		return nil
	}
	index := func(what string, k int32, n int) error {
		if k < 0 || int(k) >= n {
			return fmt.Errorf("%s index %d outside a table of %d", what, k, n)
		}
		return nil
	}
	words := func(s Span) error { return span("words", s, len(p.Words)) }
	name := func(what string, k int32) error {
		if err := index(what, k, len(p.Pieces)); err != nil {
			return err
		}
		if sp := p.Pieces[k]; sp.Wild || sp.Prim {
			return fmt.Errorf("%s piece %d is not a plain name: %+v", what, k, sp)
		}
		return nil
	}
	var errs []error
	for _, sp := range p.Pieces {
		errs = append(errs, span("text", sp.Text, len(p.Text)))
	}
	for _, u := range p.Units {
		errs = append(errs, span("unit", u.Seq, len(p.Instrs)))
		if u.Params.Set() {
			errs = append(errs, span("params", u.Params, len(p.Pieces)))
			for k := u.Params.Off; k < u.Params.Off+u.Params.Len; k++ {
				errs = append(errs, name("param", k))
			}
		}
	}
	for _, in := range p.Instrs {
		errs = append(errs, span("body", in.Body, len(p.Instrs)))
		switch in.Op {
		case OpSimple:
			errs = append(errs, words(in.Words))
		case OpAssign:
			errs = append(errs, index("target", in.Word, len(p.Words)), words(in.Words))
		case OpLet, OpLocal, OpFor:
			errs = append(errs, span("bindings", in.Bindings, len(p.Bindings)))
		case OpMatch, OpMatchExtract:
			errs = append(errs, index("subject", in.Word, len(p.Words)))
			if in.Pats.Set() {
				errs = append(errs, span("patterns", in.Pats, len(p.Pieces)))
			} else {
				errs = append(errs, words(in.Words))
			}
		}
	}
	for _, b := range p.Bindings {
		errs = append(errs, index("binding", b.Name, len(p.Words)), words(b.Values))
	}
	for _, w := range p.Words {
		if w.Kind == WordStatic {
			errs = append(errs, span("pieces", w.Span, len(p.Pieces)))
		} else {
			errs = append(errs, span("segs", w.Span, len(p.Segs)))
		}
	}
	for _, s := range p.Segs {
		switch s.Kind {
		case SegLit:
			errs = append(errs, index("literal", s.Ref, len(p.Pieces)))
		case SegVar:
			if s.Ref >= 0 || s.Ext < 0 {
				errs = append(errs, name("name", s.Ref))
			}
			if s.Ext >= 0 {
				errs = append(errs, index("var", s.Ext, len(p.Vars)))
			}
		case SegPrim:
			errs = append(errs, name("prim", s.Ref))
		case SegLambda, SegCmdSub, SegRetSub:
			errs = append(errs, index("body unit", s.Ref, len(p.Units)))
		case SegList:
			errs = append(errs, span("list", Span{Off: s.Ref, Len: s.Ext}, len(p.Words)))
		}
	}
	for _, v := range p.Vars {
		if v.Name >= 0 {
			errs = append(errs, index("computed name", v.Name, len(p.Words)))
		}
		errs = append(errs, span("subscripts", v.Index, len(p.Words)))
	}
	return errors.Join(errs...)
}

// globKinds checks that a dynamic word is WordGlob exactly when one of
// its literals, or of the words it lists, has an unquoted wildcard: the
// evaluator tracks quoting for those words only.
func globKinds(p *Program) error {
	var wild func(w *Word) bool
	wild = func(w *Word) bool {
		if w.Kind == WordStatic {
			for _, sp := range p.PiecesOf(w) {
				if sp.Wild {
					return true
				}
			}
			return false
		}
		for _, s := range p.SegsOf(w) {
			switch s.Kind {
			case SegLit:
				if p.Pieces[s.Ref].Wild {
					return true
				}
			case SegList:
				ws := p.WordsIn(Span{Off: s.Ref, Len: s.Ext})
				for k := range ws {
					if wild(&ws[k]) {
						return true
					}
				}
			}
		}
		return false
	}
	for k := range p.Words {
		w := &p.Words[k]
		if w.Kind != WordStatic && wild(w) != (w.Kind == WordGlob) {
			return fmt.Errorf("word %d is kind %d, but its literals' wildcards say otherwise", k, w.Kind)
		}
	}
	return nil
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
