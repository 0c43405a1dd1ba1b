package compile

import (
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"es/internal/glob"
	"es/internal/syntax"
)

func parseRewrite(t testing.TB, src string) *syntax.Block {
	t.Helper()
	b, err := syntax.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return syntax.Rewrite(b).(*syntax.Block)
}

func mustCompile(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Compile(parseRewrite(t, src), nil)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return u
}

// only returns the single instruction of a one-command program.
func only(t *testing.T, u *Unit) (*Program, *Instr) {
	t.Helper()
	seq := u.Prog.Seq(u.Seq)
	if len(seq) != 1 {
		t.Fatalf("want one instruction, got %+v", seq)
	}
	return u.Prog, &seq[0]
}

// staticWord returns the pieces of word k of a one-command program,
// which must be static.
func staticWord(t *testing.T, p *Program, in *Instr, k int) []StaticPiece {
	t.Helper()
	ws := p.WordsIn(in.Words)
	if k >= len(ws) || ws[k].Kind != WordStatic {
		t.Fatalf("words = %+v, want a static word %d", ws, k)
	}
	return p.PiecesOf(&ws[k])
}

// A fully static word list is a run of static words, each folded to its
// one plain piece, with no segment.
func TestCompileConstantCommandWords(t *testing.T) {
	p, in := only(t, mustCompile(t, "result a b c"))
	if in.Op != OpSimple {
		t.Fatalf("op = %v, want OpSimple", in.Op)
	}
	want := []string{"result", "a", "b", "c"}
	if n := len(p.WordsIn(in.Words)); n != len(want) {
		t.Fatalf("%d words, want %d", n, len(want))
	}
	for k, w := range want {
		if ps := staticWord(t, p, in, k); len(ps) != 1 || p.Str(ps[0].Text) != w || ps[0].Prim || ps[0].Wild {
			t.Errorf("word %d = %+v, want the plain piece %q", k, ps, w)
		}
	}
	if len(p.Segs) != 0 {
		t.Errorf("static words kept segments %+v", p.Segs)
	}
}

// A $&prim head is a static word of one primitive piece.
func TestCompilePrimHeadInterned(t *testing.T) {
	p, in := only(t, mustCompile(t, "$&result a"))
	if in.Op != OpSimple {
		t.Fatalf("op = %v, want OpSimple", in.Op)
	}
	if ps := staticWord(t, p, in, 0); len(ps) != 1 || !ps[0].Prim || p.Str(ps[0].Text) != "result" {
		t.Fatalf("head = %+v, want the prim piece result", ps)
	}
}

// An unquoted wildcard keeps its word static, marked Wild: expansion
// depends on the filesystem at run time.
func TestCompileWildcardBlocksConstPool(t *testing.T) {
	p, in := only(t, mustCompile(t, "result *.c"))
	if ps := staticWord(t, p, in, 1); len(ps) != 1 || !ps[0].Wild {
		t.Errorf("wildcard word = %+v, want one static wild piece", ps)
	}
}

// A quoted wildcard is a plain piece, which no expansion touches: it is
// not Wild, so its pattern is quoted.
func TestCompileQuotedWildcardStaysConstant(t *testing.T) {
	p, in := only(t, mustCompile(t, "result '*.c'"))
	ps := staticWord(t, p, in, 1)
	if len(ps) != 1 || ps[0].Wild || p.Str(ps[0].Text) != "*.c" {
		t.Fatalf("quoted wildcard = %+v, want the plain piece %q", ps, "*.c")
	}
	if pat := p.Pat(&ps[0]); pat.HasWild() || !pat.Match("*.c") || pat.Match("a.c") {
		t.Errorf("the quoted piece %q does not match literally", "*.c")
	}
}

// A piece is 12 bytes: its text's span and two bits, Wild and Prim,
// which are all of its quoting.
func TestStaticPieceSize(t *testing.T) {
	if n := unsafe.Sizeof(StaticPiece{}); n != 12 {
		t.Errorf("a StaticPiece is %d bytes, want 12", n)
	}
}

// Reading any piece as a pattern allocates nothing.
func TestPatAllocatesNothing(t *testing.T) {
	p := mustCompile(t, "result a '*' *.c 'a'^*.c $&echo; ~ $x *.[ch] 'q*' $&echo; x = $y^'?'").Prog
	var sink glob.Pattern
	for k := range p.Pieces {
		sp := &p.Pieces[k]
		if n := testing.AllocsPerRun(100, func() { sink = p.Pat(sp) }); n != 0 {
			t.Errorf("Pat(%q) made %v allocations, want 0", p.Str(sp.Text), n)
		}
	}
	_ = sink
}

// A word whose folded value would mix a quoted and an unquoted wildcard
// is left to the evaluator: a result word is a WordGlob word, and a
// match keeps its pattern words.  A quoted text with no wildcard joined
// to a wildcard folds to one Wild piece.
func TestCompileMixedQuotingStaysDynamic(t *testing.T) {
	p, in := only(t, mustCompile(t, "result '*'^*"))
	if ws := p.WordsIn(in.Words); ws[1].Kind != WordGlob {
		t.Errorf("'*'^* lowered to word kind %d, want WordGlob", ws[1].Kind)
	}
	p, in = only(t, mustCompile(t, "result (a '*'^*)^.c"))
	if ws := p.WordsIn(in.Words); ws[1].Kind != WordGlob {
		t.Errorf("(a '*'^*)^.c lowered to word kind %d, want WordGlob", ws[1].Kind)
	}
	p, in = only(t, mustCompile(t, "~ $x '*'^*"))
	if in.Pats.Set() {
		t.Errorf("the pattern '*'^* was folded to pieces %+v", p.PiecesIn(in.Pats))
	} else if ws := p.WordsIn(in.Words); len(ws) != 1 || ws[0].Kind != WordGlob {
		t.Errorf("pattern words = %+v, want one WordGlob word", ws)
	}
	p, in = only(t, mustCompile(t, "result 'a'^*.c"))
	if ps := staticWord(t, p, in, 1); len(ps) != 1 || !ps[0].Wild || p.Str(ps[0].Text) != "a*.c" {
		t.Errorf("'a'^*.c = %+v, want the one Wild piece %q", ps, "a*.c")
	}
}

func TestCompileMatchPatterns(t *testing.T) {
	p, in := only(t, mustCompile(t, "~ $x *.[ch] foo"))
	if in.Op != OpMatch {
		t.Fatalf("op = %v, want OpMatch", in.Op)
	}
	if !in.Pats.Set() || len(p.PiecesIn(in.Pats)) != 2 {
		t.Fatalf("static patterns not pre-compiled: %+v", in)
	}
	if pats := p.PiecesIn(in.Pats); !pats[0].Wild || pats[1].Wild || p.Str(pats[1].Text) != "foo" {
		t.Errorf("patterns = %+v, want the wild *.[ch] and the plain foo", pats)
	}

	// A primitive matches its unparsed name literally, laid out so.
	p, in = only(t, mustCompile(t, "~ $x $&echo 'a*'"))
	pats := p.PiecesIn(in.Pats)
	if len(pats) != 2 || pats[0].Prim || p.Str(pats[0].Text) != "$&echo" {
		t.Fatalf("patterns = %+v, want $&echo as text", pats)
	}
	for k, subj := range []string{"$&echo", "a*"} {
		if pat := p.Pattern(&pats[k]); !pat.Match(subj) || pat.Match(subj+"x") || pat.HasWild() {
			t.Errorf("pattern %d does not match %q literally", k, subj)
		}
	}

	if _, in := only(t, mustCompile(t, "~ $x $y")); in.Pats.Set() {
		t.Errorf("dynamic pattern list must not pre-compile: %+v", in)
	}
}

// A static word is its pieces alone: a literal word keeps one pattern
// and no segment.  A dynamic word keeps its segments, and its lone $var
// fast path names the variable.
func TestCompileStaticWordsKeepNoSegments(t *testing.T) {
	p, in := only(t, mustCompile(t, "result foo $x"))
	ws := p.WordsIn(in.Words)
	if len(ws) != 3 || ws[0].Kind != WordStatic || ws[1].Kind != WordStatic || ws[2].Kind != WordLoneVar {
		t.Fatalf("words = %+v, want static, static, lone var", ws)
	}
	if len(p.Pieces) != 3 || len(p.Segs) != 1 || p.Name(p.Segs[0].Ref) != "x" {
		t.Errorf("pieces %+v, segs %+v: want two word pieces, the name x, and one $x segment", p.Pieces, p.Segs)
	}
}

// A dynamic word is a glob word only when a literal of its own, or of a
// word it lists, has an unquoted wildcard.
func TestCompileGlobWords(t *testing.T) {
	for src, want := range map[string]WordKind{
		"result $x^*.c":      WordGlob,
		"result a?$x":        WordGlob,
		"result ($x [ab])^c": WordGlob,
		"result $x^'*'":      WordDynamic,
		"result $x^(a b)":    WordDynamic,
		"result $x^$y":       WordDynamic,
		"result <={f *}^a":   WordDynamic,
		"result $x(*)":       WordDynamic,
	} {
		p, in := only(t, mustCompile(t, src))
		if ws := p.WordsIn(in.Words); ws[1].Kind != want {
			t.Errorf("%s: word kind %d, want %d", src, ws[1].Kind, want)
		}
	}
}

func TestCompileBareBlockIsGrouping(t *testing.T) {
	if _, in := only(t, mustCompile(t, "{result a}")); in.Op != OpSeq {
		t.Fatalf("bare block lowered to %+v, want OpSeq", in)
	}
}

// The program is lowered whole: the lambda's segment indexes the unit of
// its body in the root's program, which holds its parameters, and whose
// tree, derived from the program's source, is the lambda's body.
func TestCompileLambdaBodyUnit(t *testing.T) {
	src := "f = @ x {result $x}"
	root, err := Compile(parseRewrite(t, src), &src)
	if err != nil {
		t.Fatal(err)
	}
	if root.Params.Set() {
		t.Errorf("the root unit has parameters %+v", root.Params)
	}
	if got := syntax.UnparseBody(root.Tree()); got != src {
		t.Errorf("the root unit's tree unparses to %q, want %q", got, src)
	}
	p, in := only(t, root)
	ws := p.WordsIn(in.Words)
	if in.Op != OpAssign || len(ws) != 1 || len(p.SegsOf(&ws[0])) != 1 || p.SegsOf(&ws[0])[0].Kind != SegLambda {
		t.Fatalf("f = @ x {…} lowered to %+v, want an assignment of one lambda segment", in)
	}
	ref := p.SegsOf(&ws[0])[0].Ref
	if ref != 1 || len(p.Units) != 2 {
		t.Fatalf("the lambda names unit %d of %d, want unit 1 of 2", ref, len(p.Units))
	}
	u := &p.Units[ref]
	if u.Prog != p {
		t.Error("the lambda body's unit is not in its program's tables")
	}
	if ps := p.PiecesIn(u.Params); !u.Params.Set() || len(ps) != 1 || p.Str(ps[0].Text) != "x" {
		t.Errorf("the lambda body's unit has parameters %+v (declared: %v), want x", ps, u.Params.Set())
	}
	if got := syntax.UnparseBody(u.Tree()); got != "result $x" {
		t.Errorf("the lambda body's tree unparses to %q, want %q", got, "result $x")
	}
	if seq := p.Seq(u.Seq); len(seq) != 1 || seq[0].Op != OpSimple {
		t.Errorf("lambda body unit = %+v, want one OpSimple", seq)
	}

	// A bare fragment and a substitution body declare no parameters, and
	// "@ {…}" an empty list.
	src = "result {a} <={b} @ {c}"
	p = mustCompileSrc(t, src).Prog
	for k, want := range []bool{false, false, true} {
		u := &p.Units[k+1]
		if u.Params.Set() != want || want && u.Params.Len != 0 {
			t.Errorf("%s: unit %d has parameters %+v, want declared %v and none", src, k+1, u.Params, want)
		}
	}
}

func mustCompileSrc(t *testing.T, src string) *Unit {
	t.Helper()
	u, err := Compile(parseRewrite(t, src), &src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return u
}

// TestLoweredProgramKeepsNoTree: a program lowered with its source keeps
// no pointer into the tree it was lowered from, so one collection frees
// the tree while the unit lives, and Tree derives trees that unparse
// exactly as the originals did.
func TestLoweredProgramKeepsNoTree(t *testing.T) {
	src := "let (mk = @ p {result @ x {result $p^$x}}) {result <={$mk a} `{echo b}}"
	tree := parseRewrite(t, src)
	lam := tree.Cmds[0].(*syntax.Bind).Bindings[0].Values[0].Parts[0].(*syntax.LambdaPart).Lambda
	want := []string{
		syntax.UnparseBody(tree),
		"result $p$x",
		syntax.UnparseBody(lam.Body),
		"$mk a",
		"echo b",
	}
	root, body := weak.Make(tree), weak.Make(lam.Body)
	u, err := Compile(tree, &src)
	if err != nil {
		t.Fatal(err)
	}
	tree, lam = nil, nil
	runtime.GC()
	if root.Value() != nil || body.Value() != nil {
		t.Fatal("the tree outlived its lowering while the unit lives")
	}
	p := u.Prog
	if len(p.Units) != len(want) {
		t.Fatalf("%d units, want %d", len(p.Units), len(want))
	}
	for k := range p.Units {
		if got := syntax.UnparseBody(p.Units[k].Tree()); got != want[k] {
			t.Errorf("unit %d's tree unparses to %q, want %q", k, got, want[k])
		}
	}
	if again := p.Units[1].Tree(); again != p.Units[1].Tree() {
		t.Error("a second call derived the trees again")
	}
}
