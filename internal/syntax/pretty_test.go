package syntax

import (
	"math/rand"
	"strings"
	"testing"
)

func pretty(t *testing.T, src string) string {
	t.Helper()
	blk, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Pretty(blk)
}

func TestPrettyBasics(t *testing.T) {
	tests := []struct{ src, want string }{
		{"a;b;c", "a\nb\nc\n"},
		{"echo hi", "echo hi\n"},
		{"fn f {a; b}", "fn f {\n\ta\n\tb\n}\n"},
		{"fn g x y {one}", "fn g x y {one}\n"},
		{"fn g x y {one; two}", "fn g x y {\n\tone\n\ttwo\n}\n"},
		{"if {cond} {a;b}", "if {cond} {\n\ta\n\tb\n}\n"},
		{"if {cond} {a}", "if {cond} {a}\n"},
		{"let (x = 1) {a; b}", "let (x = 1) {\n\ta\n\tb\n}\n"},
		{"let (x = 1) a", "let (x = 1) a\n"},
		{"for (i = 1 2) {a;b}", "for (i = 1 2) {\n\ta\n\tb\n}\n"},
		{"x = {a;b}", "x = {\n\ta\n\tb\n}\n"},
		{"x = @ p {a;b}", "x = @ p {\n\ta\n\tb\n}\n"},
		{"fn f {echo \\; b}", "fn f {\n\techo '\\'\n\tb\n}\n"},
		{"a | b > f", "%pipe isn't rewritten: surface stays"},
		{"", ""},
	}
	for _, tt := range tests {
		if tt.want == "%pipe isn't rewritten: surface stays" {
			got := pretty(t, tt.src)
			if got != "a | b > f\n" {
				t.Errorf("Pretty(%q) = %q", tt.src, got)
			}
			continue
		}
		if got := pretty(t, tt.src); got != tt.want {
			t.Errorf("Pretty(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestPrettyNesting(t *testing.T) {
	src := "fn outer {if {cond} {x = 1; inner; while {go} {step; step2}}}"
	got := pretty(t, src)
	want := `fn outer {
	if {cond} {
		x = 1
		inner
		while {go} {
			step
			step2
		}
	}
}
`
	if got != want {
		t.Errorf("nested pretty:\n%s\nwant:\n%s", got, want)
	}
}

// Pretty output always re-parses to the same program (the esfmt safety
// guarantee), across the random program generator.
func TestPrettyRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		g := &progGen{r: r, depth: 4}
		prog := g.block(1 + r.Intn(4))
		canonical := UnparseBody(prog)
		formatted := Pretty(prog)
		reparsed, err := Parse(formatted)
		if err != nil {
			t.Fatalf("iter %d: pretty output does not parse:\n%s\nerr: %v", iter, formatted, err)
		}
		if UnparseBody(reparsed) != canonical {
			t.Fatalf("iter %d: pretty changed the program:\nsrc:  %s\nfmt:\n%s\nback: %s",
				iter, canonical, formatted, UnparseBody(reparsed))
		}
	}
}

func TestPrettyIdempotent(t *testing.T) {
	srcs := []string{
		"fn f {a; b; if {c} {d; e}}",
		"let (x = {p; q}) {r; s}",
		"watch = @ v {echo old; echo new; return $*}",
	}
	for _, src := range srcs {
		once := pretty(t, src)
		blk, err := Parse(once)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		twice := Pretty(blk)
		if once != twice {
			t.Errorf("not idempotent:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
	}
}

func TestPrettyPreservesComplexWords(t *testing.T) {
	src := `x = $a(1 2)^'q w'^` + "`" + `{cmd}; echo $#v $^w <>{r}`
	got := pretty(t, src)
	if !strings.Contains(got, "$a(1 2)") || !strings.Contains(got, "$#v") {
		t.Errorf("words mangled: %q", got)
	}
}
