package compile

import (
	"testing"

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

func TestCompileConstantCommandWords(t *testing.T) {
	p, in := only(t, mustCompile(t, "result a b c"))
	if in.Op != OpSimple {
		t.Fatalf("op = %v, want OpSimple", in.Op)
	}
	if !in.Words.Const.Set() {
		t.Fatalf("fully static word list not constant-folded: %+v", in.Words)
	}
	want := []string{"result", "a", "b", "c"}
	consts := p.ConstsIn(in.Words.Const)
	if len(consts) != len(want) {
		t.Fatalf("Const = %+v, want %v", consts, want)
	}
	for k, w := range want {
		if ct := consts[k]; ct.Str != w || ct.Prim {
			t.Errorf("Const[%d] = %+v, want plain %q", k, ct, w)
		}
	}
	// A constant list keeps its terms, not its words.
	if len(p.Words) != 0 || len(p.Segs) != 0 || len(p.Pieces) != 0 {
		t.Errorf("constant list kept words %+v, segs %+v, pieces %+v", p.Words, p.Segs, p.Pieces)
	}
}

func TestCompilePrimHeadInterned(t *testing.T) {
	p, in := only(t, mustCompile(t, "$&result a"))
	if in.Op != OpSimple {
		t.Fatalf("op = %v, want OpSimple", in.Op)
	}
	if !in.Words.Const.Set() {
		t.Fatalf("head not a constant: %+v", in.Words)
	}
	if ct := p.ConstsIn(in.Words.Const)[0]; !ct.Prim || ct.Str != "result" {
		t.Fatalf("head = %+v, want the constant prim term result", ct)
	}
}

func TestCompileWildcardBlocksConstPool(t *testing.T) {
	p, in := only(t, mustCompile(t, "result *.c"))
	if in.Words.Const.Set() {
		t.Fatalf("word list with an unquoted wildcard must not be pooled: %+v", in.Words)
	}
	// The wildcard word itself is still static — only the pool is off,
	// because expansion depends on the filesystem at run time.
	w := &p.WordsIn(in.Words.Words)[1]
	if ps := p.PiecesOf(w); w.Kind != WordStatic || len(ps) != 1 || !ps[0].Wild {
		t.Errorf("wildcard word = %+v, want one static wild piece", w)
	}
}

func TestCompileQuotedWildcardStaysConstant(t *testing.T) {
	p, in := only(t, mustCompile(t, "result '*.c'"))
	if !in.Words.Const.Set() {
		t.Fatalf("quoted wildcard defeated the constant pool: %+v", in.Words)
	}
	if got := p.ConstsIn(in.Words.Const)[1].Str; got != "*.c" {
		t.Errorf("Const[1] = %q, want %q", got, "*.c")
	}
}

func TestCompileMatchPatterns(t *testing.T) {
	p, in := only(t, mustCompile(t, "~ $x *.[ch] foo"))
	if in.Op != OpMatch {
		t.Fatalf("op = %v, want OpMatch", in.Op)
	}
	if !in.Pats.Set() || len(p.PatsIn(in.Pats)) != 2 {
		t.Fatalf("static patterns not pre-compiled: %+v", in)
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
	ws := p.WordsIn(in.Words.Words)
	if len(ws) != 3 || ws[0].Kind != WordStatic || ws[1].Kind != WordStatic || ws[2].Kind != WordLoneVar {
		t.Fatalf("words = %+v, want static, static, lone var", ws)
	}
	if len(p.Pieces) != 2 || len(p.Segs) != 1 || p.Names[p.Segs[0].Ref] != "x" {
		t.Errorf("pieces %+v, segs %+v, names %q: want two pieces and one $x segment", p.Pieces, p.Segs, p.Names)
	}
}

func TestCompileBareBlockIsGrouping(t *testing.T) {
	if _, in := only(t, mustCompile(t, "{result a}")); in.Op != OpGroup {
		t.Fatalf("bare block lowered to %+v, want OpGroup", in)
	}
}

func TestCompileRewritesLeakedSurfaceNodes(t *testing.T) {
	// Compile a parse-only tree (no Rewrite pass): the compiler lowers
	// surface nodes on the fly through syntax.Rewrite.
	b, err := syntax.Parse("echo a | echo b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(b, nil); err != nil {
		t.Fatalf("Compile(unrewritten pipe): %v", err)
	}
}

// The program is lowered whole: the lambda body gets its own unit in the
// root's program, handed to the registrar once, after the program is
// complete.
func TestCompileRegistersLambdaBodies(t *testing.T) {
	b := parseRewrite(t, "f = @ x {result $x}")
	body := b.Cmds[0].(*syntax.Assign).Values[0].Parts[0].(*syntax.LambdaPart).Lambda.Body
	var got []*Unit
	u, err := Compile(b, func(blk *syntax.Block, su *Unit) {
		if blk != body {
			t.Errorf("registrar got block %p, want the lambda body %p", blk, body)
		}
		got = append(got, su)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("lambda body registered %d times, want once", len(got))
	}
	if got[0].Prog != u.Prog {
		t.Error("the lambda body's unit is not in its program's tables")
	}
	if seq := u.Prog.Seq(got[0].Seq); len(seq) != 1 || seq[0].Op != OpSimple {
		t.Errorf("lambda body unit = %+v, want one OpSimple", seq)
	}
}
