package syntax

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuoteString(t *testing.T) {
	tests := []struct{ in, want string }{
		{"plain", "plain"},
		{"", "''"},
		{"two words", "'two words'"},
		{"don't", "'don''t'"},
		{"a;b", "'a;b'"},
		{"$var", "'$var'"},
		{"a|b", "'a|b'"},
		{"~tilde", "'~tilde'"},
		{"@at", "'@at'"},
		{"!bang", "'!bang'"},
		{"mid~ok", "mid~ok"},
		{"glob*", "glob*"},
		{"a=b", "'a=b'"},
		{"hash#ok", "'hash#ok'"},
		{"{brace", "'{brace'"},
		{`\`, `'\'`},
		{`a\`, `a\`},
	}
	for _, tt := range tests {
		if got := QuoteString(tt.in); got != tt.want {
			t.Errorf("QuoteString(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// Every string, once quoted, re-lexes to itself as a single word.
func TestQuoteStringRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\x00") {
			return true
		}
		toks, err := Lex(QuoteString(s))
		if err != nil {
			return false
		}
		return len(toks) == 2 &&
			(toks[0].Kind == WORD || toks[0].Kind == QWORD) &&
			toks[0].Text == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randProgram builds a random surface AST from a compact grammar; the
// round-trip property below checks parse∘unparse is the identity on
// unparser output.
type progGen struct {
	r     *rand.Rand
	depth int
}

func (g *progGen) word() *Word {
	words := []string{"a", "cmd", "x1", "file.txt", "two words", "Ex*", "%hook", "don't", "-n", "fn-x"}
	switch g.r.Intn(6) {
	case 0:
		return QuotedWord(words[g.r.Intn(len(words))])
	case 1:
		return &Word{Parts: []Part{&Var{Name: LitWord("v" + string(rune('a'+g.r.Intn(3))))}}}
	case 2:
		if g.depth > 0 {
			g.depth--
			return LambdaWord(&Lambda{Body: g.block(1)})
		}
		return LitWord("deep")
	case 3:
		return &Word{Parts: []Part{
			&Lit{Text: "pre"},
			&Var{Name: LitWord("mid")},
			&Lit{Text: ".suf"},
		}}
	case 4:
		return &Word{Parts: []Part{&Var{
			Name:  LitWord("lst"),
			Index: []*Word{LitWord("2")},
		}}}
	default:
		return LitWord(words[g.r.Intn(len(words))])
	}
}

func (g *progGen) cmd() Cmd {
	if g.depth <= 0 {
		return &Simple{Words: []*Word{g.word()}}
	}
	g.depth--
	switch g.r.Intn(8) {
	case 0:
		return &Pipe{Left: g.cmd(), LFd: 1, RFd: 0, Right: g.cmd()}
	case 1:
		op := Kind(ANDAND)
		if g.r.Intn(2) == 0 {
			op = OROR
		}
		return &AndOr{Op: op, Left: g.cmd(), Right: g.cmd()}
	case 2:
		return &Not{Body: g.cmd()}
	case 3:
		return &Match{Subject: g.word(), Pats: []*Word{g.word(), g.word()}}
	case 4:
		return &Bind{Kind: BindLet, Bindings: []Binding{{Name: LitWord("lv"), Values: []*Word{g.word()}}}, Body: g.cmd()}
	case 5:
		return &Assign{Name: LitWord("av"), Values: []*Word{g.word(), g.word()}}
	case 6:
		return &RedirCmd{Body: &Simple{Words: []*Word{g.word()}},
			Redirs: []*Redir{{Op: RedirTo, Fd: 1, Target: g.word()}}}
	default:
		ws := []*Word{g.word()}
		for g.r.Intn(3) > 0 {
			ws = append(ws, g.word())
		}
		return &Simple{Words: ws}
	}
}

func (g *progGen) block(n int) *Block {
	b := &Block{}
	for k := 0; k < n; k++ {
		b.Cmds = append(b.Cmds, g.cmd())
	}
	return b
}

// Unparser output always re-parses, and re-unparsing is a fixed point.
func TestRandomProgramRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		g := &progGen{r: r, depth: 4}
		prog := g.block(1 + r.Intn(3))
		src := UnparseBody(prog)
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("iter %d: generated source does not parse: %q: %v", iter, src, err)
		}
		again := UnparseBody(parsed)
		if again != src {
			t.Fatalf("iter %d: round trip not fixed:\n 1: %s\n 2: %s", iter, src, again)
		}
		// And the core form round-trips too.
		coreSrc := UnparseBody(Rewrite(parsed).(*Block))
		coreParsed, err := Parse(coreSrc)
		if err != nil {
			t.Fatalf("iter %d: core form does not parse: %q: %v", iter, coreSrc, err)
		}
		if UnparseBody(Rewrite(coreParsed).(*Block)) != coreSrc {
			t.Fatalf("iter %d: core form not a fixed point: %q", iter, coreSrc)
		}
	}
}

func TestUnparseLambdaShapes(t *testing.T) {
	blk, err := Parse("echo hi")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		l    *Lambda
		want string
	}{
		{&Lambda{Body: blk}, "{echo hi}"},
		{&Lambda{HasParams: true, Body: blk}, "@ {echo hi}"},
		{&Lambda{HasParams: true, Params: []string{"a", "b"}, Body: blk}, "@ a b {echo hi}"},
		{&Lambda{HasParams: true, Params: []string{"*"}, Body: blk}, "@ * {echo hi}"},
	}
	for _, tt := range tests {
		if got := UnparseLambda(tt.l); got != tt.want {
			t.Errorf("UnparseLambda = %q, want %q", got, tt.want)
		}
	}
}

func TestUnparseRedirs(t *testing.T) {
	tests := []string{
		"a > f",
		"a >> f",
		"a < f",
		"a >[2] f",
		"a >>[2] f",
		"a <[3] f",
		"a >[1=2]",
		"a >[2=]",
	}
	for _, src := range tests {
		b, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := UnparseBody(b); got != src {
			t.Errorf("unparse(%q) = %q", src, got)
		}
	}
}
