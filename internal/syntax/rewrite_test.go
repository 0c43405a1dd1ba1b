package syntax

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// rewriteOf parses src, rewrites it, and unparses the core form.
func rewriteOf(t *testing.T, src string) string {
	t.Helper()
	b, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return UnparseBody(Rewrite(b).(*Block))
}

func TestRewriteCoreForms(t *testing.T) {
	tests := []struct{ src, want string }{
		// The paper's flagship example: "ls > /tmp/foo is internally
		// rewritten as %create 1 /tmp/foo {ls}".
		{"ls > /tmp/foo", "%create 1 /tmp/foo {ls}"},
		{"a >> log", "%append 1 log {a}"},
		{"cat < in", "%open 0 in {cat}"},
		{"echo >[1=2] oops", "%dup 1 2 {echo oops}"},
		{"cmd >[2=]", "%close 2 {cmd}"},
		{"a | b", "%pipe {a} 1 0 {b}"},
		{"a | b | c", "%pipe {a} 1 0 {b} 1 0 {c}"},
		{"a |[2] b", "%pipe {a} 2 0 {b}"},
		{"a |[2=5] b", "%pipe {a} 2 5 {b}"},
		{"a && b", "%and {a} {b}"},
		{"a && b && c", "%and {a} {b} {c}"},
		{"a || b", "%or {a} {b}"},
		{"a && b || c", "%or {%and {a} {b}} {c}"},
		{"sleep 3 &", "%background {sleep 3}"},
		{"fn d {date}", "fn-d = {date}"},
		{"fn echon args {echo -n $args}", "fn-echon = @ args {echo -n $args}"},
		{"fn trace", "fn-trace ="},
		{"fn $func args {$old $args}", "fn-$func = @ args {$old $args}"},
		{"cat < in > out", "%open 0 in {%create 1 out {cat}}"},
		{"{a; b} > f", "%create 1 f {{a; b}}"},
		{"a | b > f", "%pipe {a} 1 0 {%create 1 f {b}}"},
		{"a > f | b", "%pipe {%create 1 f {a}} 1 0 {b}"},
		{"! a | b", "%pipe {! a} 1 0 {b}"},
		{"a & b", "{%background {a}; b}"},
		// Untouched forms.
		{"~ $e error", "~ $e error"},
		{"let (x = a) echo $x", "let (x = a) echo $x"},
		{"local (x = a) echo $x", "local (x = a) echo $x"},
		{"for (i = $args) $cmd $i", "for (i = $args) $cmd $i"},
		{"x = foo", "x = foo"},
	}
	for _, tt := range tests {
		got := rewriteOf(t, tt.src)
		if got != tt.want {
			t.Errorf("Rewrite(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// Rewriting must reach inside lambdas, substitutions and binding bodies.
func TestRewriteRecurses(t *testing.T) {
	tests := []struct{ src, want string }{
		{"fn f {a | b}", "fn-f = {%pipe {a} 1 0 {b}}"},
		{"x = {a | b}", "x = {%pipe {a} 1 0 {b}}"},
		{"let (x = {a > f}) $x", "let (x = {%create 1 f {a}}) $x"},
		{"echo <>{a | b}", "echo <>{%pipe {a} 1 0 {b}}"},
		{"echo `{a | b}", "echo `{%pipe {a} 1 0 {b}}"},
		{"if {a && b} {c > f}", "if {%and {a} {b}} {%create 1 f {c}}"},
		{"for (i = x) a | b", "for (i = x) %pipe {a} 1 0 {b}"},
	}
	for _, tt := range tests {
		got := rewriteOf(t, tt.src)
		if got != tt.want {
			t.Errorf("Rewrite(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// The core form is a fixed point of Rewrite.
func TestRewriteIdempotent(t *testing.T) {
	srcs := []string{
		"ls > /tmp/foo",
		"a | b | c && d || e &",
		"fn f a b {x | y > z}",
		"catch @ e msg {h} {b < f}",
	}
	for _, src := range srcs {
		once := rewriteOf(t, src)
		twice := rewriteOf(t, once)
		if once != twice {
			t.Errorf("Rewrite not idempotent for %q:\nonce:  %s\ntwice: %s", src, once, twice)
		}
	}
}

// Core trees contain no surface-only nodes.
func TestRewriteEliminatesSurfaceNodes(t *testing.T) {
	b, err := Parse("a | b && c > f & \n fn g {x | y}")
	if err != nil {
		t.Fatal(err)
	}
	var check func(c Cmd)
	var checkWord func(w *Word)
	checkWord = func(w *Word) {
		if w == nil {
			return
		}
		for _, p := range w.Parts {
			switch p := p.(type) {
			case *LambdaPart:
				check(p.Lambda.Body)
			case *CmdSub:
				check(p.Body)
			case *RetSub:
				check(p.Body)
			case *ListPart:
				for _, sub := range p.Words {
					checkWord(sub)
				}
			}
		}
	}
	check = func(c Cmd) {
		switch c := c.(type) {
		case *Pipe, *AndOr, *Bg, *RedirCmd, *Fn:
			t.Errorf("surface node %T survived rewrite", c)
		case *Block:
			for _, sub := range c.Cmds {
				check(sub)
			}
		case *Simple:
			for _, w := range c.Words {
				checkWord(w)
			}
		case *Assign:
			for _, w := range c.Values {
				checkWord(w)
			}
		case *Bind:
			check(c.Body)
		case *Not:
			check(c.Body)
		}
	}
	check(Rewrite(b))
}

// rewriteRecord is one program's rewritten form as
// testdata/rewrite_golden.json keeps it: the core form's unparse, and
// the position of every command, word, variable, primitive,
// substitution and lambda, in walk order.
type rewriteRecord struct {
	Name string `json:"name"`
	Src  string `json:"src"`
	Core string `json:"core"`
	Pos  string `json:"pos"`
}

// recordRewrite parses and rewrites src; ok is false when src does not
// parse.
func recordRewrite(name, src string) (rec rewriteRecord, ok bool) {
	b, err := Parse(src)
	if err != nil {
		return rewriteRecord{}, false
	}
	core := Rewrite(b).(*Block)
	return rewriteRecord{Name: name, Src: src, Core: UnparseBody(core), Pos: positions(core)}, true
}

// positions lists a tag and a line:col for each positioned node of a
// core tree, in walk order.
func positions(c Cmd) string {
	var w posWalk
	w.cmd(c)
	return strings.TrimSuffix(w.b.String(), " ")
}

type posWalk struct{ b strings.Builder }

func (w *posWalk) at(tag string, p Pos) {
	w.b.WriteString(tag)
	w.b.WriteString(p.String())
	w.b.WriteByte(' ')
}

func (w *posWalk) cmd(c Cmd) {
	switch c := c.(type) {
	case nil:
	case *Block:
		w.at("B", c.Pos)
		for _, sub := range c.Cmds {
			w.cmd(sub)
		}
	case *Simple:
		w.at("S", c.Pos)
		w.words(c.Words)
	case *Assign:
		w.at("A", c.Pos)
		w.word(c.Name)
		w.words(c.Values)
	case *Bind:
		w.at(c.Kind.String(), c.Pos)
		w.bindings(c.Bindings)
		w.cmd(c.Body)
	case *Match:
		if c.Extract {
			w.at("~~", c.Pos)
		} else {
			w.at("~", c.Pos)
		}
		w.word(c.Subject)
		w.words(c.Pats)
	case *Not:
		w.at("!", c.Pos)
		w.cmd(c.Body)
	default:
		fmt.Fprintf(&w.b, "surface:%T ", c)
	}
}

func (w *posWalk) bindings(bs []Binding) {
	for _, b := range bs {
		w.word(b.Name)
		w.words(b.Values)
	}
}

func (w *posWalk) words(ws []*Word) {
	for _, x := range ws {
		w.word(x)
	}
}

func (w *posWalk) word(x *Word) {
	if x == nil {
		return
	}
	w.at("w", x.Pos)
	for _, p := range x.Parts {
		switch p := p.(type) {
		case *Var:
			w.at("$", p.Pos)
			w.word(p.Name)
			w.words(p.Index)
		case *Prim:
			w.at("$&", p.Pos)
		case *CmdSub:
			w.at("`", p.Pos)
			w.cmd(p.Body)
		case *RetSub:
			w.at("<>", p.Pos)
			w.cmd(p.Body)
		case *LambdaPart:
			w.at("@", p.Lambda.Pos)
			w.cmd(p.Lambda.Body)
		case *ListPart:
			w.words(p.Words)
		}
	}
}

// The rewriter's output is pinned by data recorded from the copying
// rewriter that preceded the in-place one: for each program, the core
// form's unparse and every node's position.  The programs are the
// parser's fuzz corpus and seeds, the compiler's fuzz seeds, the sources
// of the rewrite tests, lib/*.es, testdata/selftest.es, the embedded
// initial.es and a set of redirection, fn, pipe and substitution shapes.
// A node the parser shared between two places would be rewritten twice
// in place, and its entry would differ.
func TestRewriteGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/rewrite_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []rewriteRecord
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("rewrite_golden.json: %v", err)
	}
	if len(golden) == 0 {
		t.Fatal("rewrite_golden.json holds no entries")
	}
	for _, want := range golden {
		got, ok := recordRewrite(want.Name, want.Src)
		if !ok {
			t.Errorf("%s: no longer parses", want.Name)
			continue
		}
		if got.Core != want.Core {
			t.Errorf("%s: core form\n got: %s\nwant: %s", want.Name, got.Core, want.Core)
		}
		if got.Pos != want.Pos {
			t.Errorf("%s: positions\n got: %s\nwant: %s", want.Name, got.Pos, want.Pos)
		}
	}
}

// Rewrite lowers the tree it is given: the block it returns is the one
// Parse made, and rewriting that block again changes nothing.
func TestRewriteInPlace(t *testing.T) {
	form := func(b *Block) string { return UnparseBody(b) + "\n" + positions(b) }
	for _, src := range []string{
		"a | b > f && c",
		"fn f a {x | y >> z}; {a; b} > f &",
		"echo `{a|b} <={c || d}",
		"let (x = {a > f}) for (i = $x) ! $i | b",
	} {
		b, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if core := Rewrite(b); core != Cmd(b) {
			t.Errorf("Rewrite(%q) returned a new block", src)
			continue
		}
		once := form(b)
		if again := Rewrite(b); again != Cmd(b) || form(b) != once {
			t.Errorf("a second Rewrite of %q changed it:\n got: %s\nwant: %s", src, form(b), once)
		}
	}
}
