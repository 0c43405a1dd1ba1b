package compile

import (
	"testing"

	"es/internal/syntax"
)

func parseRewrite(t *testing.T, src string) *syntax.Block {
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

func TestCompileConstantCommandWords(t *testing.T) {
	u := mustCompile(t, "result a b c")
	if len(u.Seq) != 1 || u.Seq[0].Op != OpSimple {
		t.Fatalf("want one OpSimple, got %+v", u.Seq)
	}
	in := u.Seq[0]
	if in.Words.Const == nil {
		t.Fatalf("fully static word list not constant-folded: %+v", in.Words)
	}
	want := []string{"result", "a", "b", "c"}
	if len(in.Words.Const) != len(want) {
		t.Fatalf("Const = %+v, want %v", in.Words.Const, want)
	}
	for k, w := range want {
		if ct := in.Words.Const[k]; ct.Str != w || ct.Prim != "" {
			t.Errorf("Const[%d] = %+v, want plain %q", k, ct, w)
		}
	}
	if in.HeadPrim != -1 {
		t.Errorf("HeadPrim = %d for a non-primitive head, want -1", in.HeadPrim)
	}
}

func TestCompilePrimHeadInterned(t *testing.T) {
	u := mustCompile(t, "$&result a")
	in := u.Seq[0]
	if in.Op != OpSimple {
		t.Fatalf("op = %v, want OpSimple", in.Op)
	}
	if in.Words.Const == nil || in.Words.Const[0].Prim != "result" {
		t.Fatalf("head not a constant prim term: %+v", in.Words.Const)
	}
	if want := InternPrim("result"); in.HeadPrim != want {
		t.Errorf("HeadPrim = %d, want interned index %d", in.HeadPrim, want)
	}
}

func TestCompileWildcardBlocksConstPool(t *testing.T) {
	u := mustCompile(t, "result *.c")
	in := u.Seq[0]
	if in.Words.Const != nil {
		t.Fatalf("word list with an unquoted wildcard must not be pooled: %+v", in.Words.Const)
	}
	// The wildcard word itself is still static — only the pool is off,
	// because expansion depends on the filesystem at run time.
	w := in.Words.Words[1]
	if !w.StaticSet || len(w.Static) != 1 || !w.Static[0].Wild {
		t.Errorf("wildcard word = %+v, want one static wild piece", w)
	}
}

func TestCompileQuotedWildcardStaysConstant(t *testing.T) {
	u := mustCompile(t, "result '*.c'")
	in := u.Seq[0]
	if in.Words.Const == nil {
		t.Fatalf("quoted wildcard defeated the constant pool: %+v", in.Words)
	}
	if got := in.Words.Const[1].Str; got != "*.c" {
		t.Errorf("Const[1] = %q, want %q", got, "*.c")
	}
}

func TestCompileMatchPatterns(t *testing.T) {
	u := mustCompile(t, "~ $x *.[ch] foo")
	in := u.Seq[0]
	if in.Op != OpMatch {
		t.Fatalf("op = %v, want OpMatch", in.Op)
	}
	if len(in.Pats.Static) != 2 {
		t.Fatalf("static patterns not pre-compiled: %+v", in.Pats)
	}

	u = mustCompile(t, "~ $x $y")
	if in := u.Seq[0]; in.Pats.Static != nil {
		t.Errorf("dynamic pattern list must not pre-compile: %+v", in.Pats)
	}
}

func TestCompileBareBlockIsGrouping(t *testing.T) {
	u := mustCompile(t, "{result a}")
	if len(u.Seq) != 1 || u.Seq[0].Op != OpGroup {
		t.Fatalf("bare block lowered to %+v, want OpGroup", u.Seq)
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

func TestCompileRegistersLambdaBodies(t *testing.T) {
	got := 0
	b := parseRewrite(t, "f = @ x {result $x}")
	_, err := Compile(b, func(blk *syntax.Block, u *Unit) {
		if blk == nil || u == nil {
			t.Errorf("registrar got blk=%v u=%v", blk, u)
		}
		got++
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("lambda body was not registered for compiled application")
	}
}

func TestInternPrimStable(t *testing.T) {
	a := InternPrim("compile-test-prim-a")
	b := InternPrim("compile-test-prim-b")
	if a == b {
		t.Fatalf("distinct names share index %d", a)
	}
	if again := InternPrim("compile-test-prim-a"); again != a {
		t.Errorf("re-interning moved index %d -> %d", a, again)
	}
	if got := PrimName(a); got != "compile-test-prim-a" {
		t.Errorf("PrimName(%d) = %q", a, got)
	}
	if got := PrimName(-1); got != "" {
		t.Errorf("PrimName(-1) = %q, want empty", got)
	}
	if n := NumPrims(); n <= b {
		t.Errorf("NumPrims() = %d, want > %d", n, b)
	}
}
