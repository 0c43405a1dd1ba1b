package syntax

import (
	"slices"
	"testing"
)

// FuzzParse: the parser must never panic, anything it accepts must
// unparse to source that re-parses to the same unparsed form, Pretty's
// layout of it must re-parse to that form too (esfmt's guarantee), and
// Inspect must visit its rewritten tree's nodes each once.
func FuzzParse(f *testing.F) {
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
		"local (a = x; $a = 1) echo $x",
		"~~ $x *.[ch] ?",
		"for (i = 1 2) let (j = $i) fn f {a; b}",
		"fn f {echo \\; b}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		blk, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		once := UnparseBody(blk)
		blk2, err := Parse(once)
		if err != nil {
			t.Fatalf("unparse of valid program does not re-parse:\n src: %q\nonce: %q\nerr: %v", src, once, err)
		}
		twice := UnparseBody(blk2)
		if once != twice {
			t.Fatalf("unparse not a fixed point:\n src: %q\nonce: %q\ntwice: %q", src, once, twice)
		}
		pretty := Pretty(blk)
		if blk3, err := Parse(pretty); err != nil {
			t.Fatalf("pretty output does not parse:\n src: %q\npretty: %q\nerr: %v", src, pretty, err)
		} else if back := UnparseBody(blk3); back != once {
			t.Fatalf("pretty changed the program:\n src: %q\npretty: %q\nonce: %q\nback: %q", src, pretty, once, back)
		}
		// The rewriter must accept anything the parser produced.
		root := Rewrite(blk)
		core := UnparseBody(root.(*Block))
		if _, err := Parse(core); err != nil {
			t.Fatalf("core form does not parse:\n src: %q\ncore: %q\nerr: %v", src, core, err)
		}
		// Inspect visits each command, word and part of the core tree
		// exactly once: the nodes a walk over the AST's fields finds.
		visits := inspected(root, nil)
		if want := append([]any{root}, fieldNodes(root)...); !slices.Equal(visits, want) {
			t.Fatalf("Inspect visits %s\nthe fields hold %s\n src: %q", describe(visits), describe(want), src)
		}
		seen := make(map[any]bool, len(visits))
		for _, n := range visits {
			if seen[n] {
				t.Fatalf("Inspect visits %s twice\n src: %q", describe([]any{n}), src)
			}
			seen[n] = true
		}
	})
}

// FuzzLex: the lexer terminates and never panics.
func FuzzLex(f *testing.F) {
	f.Add("a $# '>' >[1=2] `{x}")
	f.Add(">>>>[[[")
	f.Fuzz(func(t *testing.T, src string) {
		toks, _ := Lex(src)
		if len(toks) > len(src)+2 {
			t.Fatalf("token explosion: %d tokens from %d bytes", len(toks), len(src))
		}
	})
}
