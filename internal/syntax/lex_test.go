package syntax

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	tests := []struct {
		src  string
		want []Kind
	}{
		{"cd /tmp", []Kind{WORD, WORD, EOF}},
		{"rm Ex*", []Kind{WORD, WORD, EOF}},
		{"a; b", []Kind{WORD, SEMI, WORD, EOF}},
		{"a | b", []Kind{WORD, PIPE, WORD, EOF}},
		{"a || b && c", []Kind{WORD, OROR, WORD, ANDAND, WORD, EOF}},
		{"a &", []Kind{WORD, AMP, EOF}},
		{"a\nb", []Kind{WORD, NEWLINE, WORD, EOF}},
		{"x = foo", []Kind{WORD, EQUALS, WORD, EOF}},
		{"x=foo bar", []Kind{WORD, EQUALS, WORD, WORD, EOF}},
		{"fn d {date}", []Kind{WORD, WORD, LBRACE, WORD, RBRACE, EOF}},
		{"@ i {cd $i}", []Kind{AT, WORD, LBRACE, WORD, DOLLAR, WORD, RBRACE, EOF}},
		{"echo $#head", []Kind{WORD, COUNT, WORD, EOF}},
		{"echo $$var", []Kind{WORD, DOUBLE, WORD, EOF}},
		{"fn-%and = $&and", []Kind{WORD, EQUALS, PRIM, WORD, EOF}},
		{"!~ $e error", []Kind{BANG, TILDE, DOLLAR, WORD, WORD, EOF}},
		{"echo <>{car}", []Kind{WORD, RETSUB, LBRACE, WORD, RBRACE, EOF}},
		{"echo <={car}", []Kind{WORD, RETSUB, LBRACE, WORD, RBRACE, EOF}},
		{"title `{pwd}", []Kind{WORD, BQUOTE, LBRACE, WORD, RBRACE, EOF}},
		{"ls > /tmp/foo", []Kind{WORD, REDIR, WORD, EOF}},
		{"echo >[1=2] oops", []Kind{WORD, REDIR, WORD, EOF}},
		{"a^b", []Kind{WORD, CARET, WORD, EOF}},
		{"# comment only", []Kind{EOF}},
		{"a # trailing\nb", []Kind{WORD, NEWLINE, WORD, EOF}},
		{"a \\\n b", []Kind{WORD, WORD, EOF}},
		{"$mixed(2)", []Kind{DOLLAR, WORD, LPAREN, WORD, RPAREN, EOF}},
		{"'hi there'", []Kind{QWORD, EOF}},
		{"''", []Kind{QWORD, EOF}},
		{"let (x = a) b", []Kind{WORD, LPAREN, WORD, EQUALS, WORD, RPAREN, WORD, EOF}},
	}
	for _, tt := range tests {
		toks, err := Lex(tt.src)
		if err != nil {
			t.Errorf("Lex(%q): %v", tt.src, err)
			continue
		}
		got := kinds(toks)
		if len(got) != len(tt.want) {
			t.Errorf("Lex(%q) = %v, want %v", tt.src, toks, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Lex(%q)[%d] = %v, want %v", tt.src, i, got[i], tt.want[i])
			}
		}
	}
}

func TestLexQuoting(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"'hello, world'", "hello, world"},
		{"'don''t'", "don't"},
		{"'^byron'", "^byron"},
		{"'{print $2}'", "{print $2}"},
		{"'usage: in dir cmd'", "usage: in dir cmd"},
	}
	for _, tt := range tests {
		toks, err := Lex(tt.src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", tt.src, err)
		}
		if toks[0].Kind != QWORD || toks[0].Text != tt.want {
			t.Errorf("Lex(%q) = %v, want qword %q", tt.src, toks[0], tt.want)
		}
	}
}

func TestLexUnterminatedQuote(t *testing.T) {
	_, err := Lex("'oops")
	if err == nil || !IsIncomplete(err) {
		t.Fatalf("want incomplete error, got %v", err)
	}
}

func TestLexFdSpecs(t *testing.T) {
	toks, err := Lex(">[1=2]")
	if err != nil {
		t.Fatal(err)
	}
	r := toks[0]
	if r.Kind != REDIR || r.Op != RedirDup || r.Fd != 1 || r.Fd2 != 2 {
		t.Errorf("got %+v, want dup 1=2", r)
	}

	toks, err = Lex(">[2=]")
	if err != nil {
		t.Fatal(err)
	}
	r = toks[0]
	if r.Kind != REDIR || r.Op != RedirClose || r.Fd != 2 {
		t.Errorf("got %+v, want close 2", r)
	}

	toks, err = Lex("a |[2] b")
	if err != nil {
		t.Fatal(err)
	}
	r = toks[1]
	if r.Kind != PIPE || r.Fd != 2 {
		t.Errorf("got %+v, want pipe fd 2", r)
	}

	toks, err = Lex(">>[2] log")
	if err != nil {
		t.Fatal(err)
	}
	r = toks[0]
	if r.Kind != REDIR || r.Op != RedirAppend || r.Fd != 2 {
		t.Errorf("got %+v, want append fd 2", r)
	}
}

func TestLexSpaceBefore(t *testing.T) {
	toks, err := Lex("fn-$func a$b $c(1)")
	if err != nil {
		t.Fatal(err)
	}
	// fn- $ func  a $ b  $ c (1): adjacency must be recorded.
	if toks[1].SpaceBefore { // '$' after fn-
		t.Error("$ after fn- should be adjacent")
	}
	if !toks[3].SpaceBefore { // 'a' begins a new word
		t.Error("a should have space before")
	}
	adjParen := toks[8]
	if adjParen.Kind != LPAREN || adjParen.SpaceBefore {
		t.Errorf("subscript paren should be adjacent, got %v", adjParen)
	}
}

// Words made of safe characters always lex to a single WORD token with the
// same text.
func TestLexWordRoundTripProperty(t *testing.T) {
	safe := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789%-_./+:,*?"
	f := func(idx []uint8) bool {
		if len(idx) == 0 {
			return true
		}
		var b strings.Builder
		for _, i := range idx {
			b.WriteByte(safe[int(i)%len(safe)])
		}
		word := b.String()
		toks, err := Lex(word)
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].Kind == WORD && toks[0].Text == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Any string survives a quote-then-lex round trip.
func TestLexQuoteRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		quoted := "'" + strings.ReplaceAll(s, "'", "''") + "'"
		toks, err := Lex(quoted)
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].Kind == QWORD && toks[0].Text == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLexHeredoc(t *testing.T) {
	src := "cat << EOF\nline 1\nline 2\nEOF\necho after"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	// cat, REDIR(heredoc), NEWLINE, echo, after, EOF
	if toks[1].Kind != REDIR || !toks[1].Heredoc {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if toks[1].Text != "line 1\nline 2\n" {
		t.Errorf("body = %q", toks[1].Text)
	}
	rest := []Kind{WORD, REDIR, NEWLINE, WORD, WORD, EOF}
	for k, want := range rest {
		if toks[k].Kind != want {
			t.Errorf("token %d = %v, want %v", k, toks[k].Kind, want)
		}
	}
}

func TestLexHeredocUnterminated(t *testing.T) {
	for _, src := range []string{"cat << EOF", "cat << EOF\nbody without end"} {
		_, err := Lex(src)
		if err == nil || !IsIncomplete(err) {
			t.Errorf("Lex(%q): err = %v, want incomplete", src, err)
		}
	}
	if _, err := Lex("cat << "); err == nil {
		t.Error("missing tag should error")
	}
}

func TestParseHeredocPipeline(t *testing.T) {
	b, err := Parse("cat << A | tr x y\nbody\nA")
	if err != nil {
		t.Fatal(err)
	}
	core := UnparseBody(Rewrite(b).(*Block))
	if core != "%pipe {%here 0 'body\n' {cat}} 1 0 {tr x y}" {
		t.Errorf("heredoc core = %q", core)
	}
}

func TestLexTwoHeredocsSequential(t *testing.T) {
	src := "a << X\none\nX\nb << Y\ntwo\nY"
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Cmds) != 2 {
		t.Fatalf("got %d cmds", len(b.Cmds))
	}
}

// A token after a heredoc sits on the line it is on: the lexer counts
// every line of the bodies it jumps, two bodies on one line included.
func TestLexHeredocLines(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"cat << EOF\nEOF\necho $x", 3},
		{"cat << EOF\na\nb\nc\nEOF\necho $x", 6},
		{"cat << A << B\na\nA\nb1\nb2\nB\necho $x", 7},
		{"cat << A; cat << B\na\nA\nb\nB\n\necho $x", 7},
	} {
		toks, err := Lex(tc.src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", tc.src, err)
		}
		last := toks[len(toks)-2] // the x of $x, before EOF
		if last.Line != tc.line || last.Col != 7 {
			t.Errorf("Lex(%q): %s at %d:%d, want %d:7", tc.src, last.Text, last.Line, last.Col, tc.line)
		}
	}
}

// CommentLine finds the first comment the lexer skips, and no '#' that
// belongs to a word, a count or a heredoc body.
func TestCommentLine(t *testing.T) {
	tests := []struct {
		src  string
		want int
	}{
		{"", 0},
		{"echo hi", 0},
		{"# head\necho hi", 1},
		{"echo hi # tail", 1},
		{"echo hi\n\n\t# third\n# fourth", 3},
		{"echo '#' $#x '# not' ''''#", 1},
		{"echo '#' $#x '# not' ''''", 0},
		{"echo a#b", 1},
		{"cat << EOF\n# body\nEOF\n", 0},
		{"x = 1 \\\n# next", 2},
		{"echo 'open # quote", 0},
	}
	for _, tt := range tests {
		if got := CommentLine(tt.src); got != tt.want {
			t.Errorf("CommentLine(%q) = %d, want %d", tt.src, got, tt.want)
		}
	}
}
