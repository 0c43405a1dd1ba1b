package glob

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatch(t *testing.T) {
	tests := []struct {
		pat, s string
		want   bool
	}{
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"*", "", true},
		{"*", "anything", true},
		{"a*", "a", true},
		{"a*", "abc", true},
		{"a*", "ba", false},
		{"*c", "abc", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"a**b", "ab", true},
		{"?", "x", true},
		{"?", "", false},
		{"?", "xy", false},
		{"a?c", "abc", true},
		{"Ex*", "Ex123", true},
		{"Ex*", "ex123", false},
		{"[abc]", "b", true},
		{"[abc]", "d", false},
		{"[a-z]", "q", true},
		{"[a-z]", "Q", false},
		{"[~a-z]", "Q", true},
		{"[~a-z]", "q", false},
		{"[^a-z]", "0", true},
		{"[]]", "]", true},
		{"[]]", "x", false},
		{"[~]]", "x", true},
		{"[~]]", "]", false},
		{"a[0-9]*", "a7xyz", true},
		{"a[0-9]*", "ax", false},
		{"*.go", "main.go", true},
		{"*.go", "main.c", false},
		{"/*", "/tmp", true},
		{"eof", "eof", true},
		{"[", "[", true},
		{"[", "x", false},
		{"foo[", "foo[", true},
	}
	for _, tt := range tests {
		if got := New(tt.pat).Match(tt.s); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.pat, tt.s, got, tt.want)
		}
	}
}

func TestLiteralPattern(t *testing.T) {
	// A quoted '*' matches only a literal star.
	p := NewLiteral("a*")
	if p.Match("abc") {
		t.Error("literal a* matched abc")
	}
	if !p.Match("a*") {
		t.Error("literal a* did not match a*")
	}
	if p.HasWild() {
		t.Error("literal pattern reports wildcards")
	}
}

func TestConcat(t *testing.T) {
	// a^'*'  → literal star after wild a
	p := Concat(New("?"), NewLiteral("*"))
	if !p.Match("x*") {
		t.Error("?'*' should match x*")
	}
	if p.Match("xy") {
		t.Error("?'*' should not match xy")
	}
	p2 := Concat(NewLiteral("x"), New("*"))
	if !p2.Match("xanything") || !p2.HasWild() {
		t.Error("x^* broken")
	}
}

func TestHasWild(t *testing.T) {
	for pat, want := range map[string]bool{
		"abc": false, "a*c": true, "a?": true, "a[b]": true, "plain/path": false,
	} {
		if got := New(pat).HasWild(); got != want {
			t.Errorf("HasWild(%q) = %v, want %v", pat, got, want)
		}
	}
}

// Compare against path.Match on the subset of syntax the two share.
func TestMatchAgainstReference(t *testing.T) {
	alphabet := []byte{'a', 'b', 'c', '*', '?'}
	f := func(patIdx, sIdx []uint8) bool {
		var pat, s strings.Builder
		for _, i := range patIdx {
			if pat.Len() > 6 {
				break
			}
			pat.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		for _, i := range sIdx {
			if s.Len() > 8 {
				break
			}
			s.WriteByte(alphabet[int(i)%3]) // letters only
		}
		want, err := filepath.Match(pat.String(), s.String())
		if err != nil {
			return true
		}
		return New(pat.String()).Match(s.String()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Every string matches itself as a literal pattern.
func TestLiteralSelfMatchProperty(t *testing.T) {
	f := func(s string) bool {
		return NewLiteral(s).Match(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpand(t *testing.T) {
	dir := t.TempDir()
	mk := func(names ...string) {
		for _, n := range names {
			full := filepath.Join(dir, n)
			if strings.HasSuffix(n, "/") {
				if err := os.MkdirAll(full, 0o755); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(full, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mk("Ex1", "Ex2", "other", ".hidden", "sub/", "sub/a.go", "sub/b.go", "sub/c.txt")

	tests := []struct {
		pat  string
		want []string
	}{
		{"Ex*", []string{"Ex1", "Ex2"}},
		{"*", []string{"Ex1", "Ex2", "other", "sub"}},
		{".*", []string{".hidden"}},
		{"sub/*.go", []string{"sub/a.go", "sub/b.go"}},
		{"*/*.go", []string{"sub/a.go", "sub/b.go"}},
		{"nomatch*", nil},
		{"sub/?.txt", []string{"sub/c.txt"}},
	}
	for _, tt := range tests {
		got := Expand(New(tt.pat), dir)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Expand(%q) = %v, want %v", tt.pat, got, tt.want)
		}
	}
}

func TestExpandAbsolute(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "xyz.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got := Expand(New(dir+"/xyz.*"), "")
	want := []string{filepath.Join(dir, "xyz.txt")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand abs = %v, want %v", got, want)
	}
}

func TestExpandNoWild(t *testing.T) {
	if got := Expand(NewLiteral("plain"), ""); got != nil {
		t.Errorf("Expand of literal = %v, want nil", got)
	}
}

func TestMatchCapture(t *testing.T) {
	tests := []struct {
		pat, s string
		want   []string
		ok     bool
	}{
		{"*.c", "main.c", []string{"main"}, true},
		{"*-*", "left-right", []string{"left", "right"}, true},
		{"a?c", "abc", []string{"b"}, true},
		{"v[0-9]", "v7", []string{"7"}, true},
		{"*", "", []string{""}, true},
		{"plain", "plain", nil, true},
		{"*.c", "main.go", nil, false},
		{"*-*", "nodash", nil, false},
		{"a*b*c", "aXbYc", []string{"X", "Y"}, true},
		// Greedy: the first star takes as much as possible.
		{"*b*", "abab", []string{"aba", ""}, true},
	}
	for _, tt := range tests {
		got, ok := New(tt.pat).MatchCapture(tt.s)
		if ok != tt.ok {
			t.Errorf("MatchCapture(%q, %q) ok = %v, want %v", tt.pat, tt.s, ok, tt.ok)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("MatchCapture(%q, %q) = %v, want %v", tt.pat, tt.s, got, tt.want)
			continue
		}
		for k := range got {
			if got[k] != tt.want[k] {
				t.Errorf("MatchCapture(%q, %q)[%d] = %q, want %q", tt.pat, tt.s, k, got[k], tt.want[k])
			}
		}
	}
}

// Captures are consistent with Match, and rejoining captures with the
// literal parts reconstructs the subject.
func TestMatchCaptureConsistencyProperty(t *testing.T) {
	alphabet := []byte{'a', 'b', '*', '?'}
	f := func(patIdx, sIdx []uint8) bool {
		var pat, s strings.Builder
		for _, i := range patIdx {
			if pat.Len() > 5 {
				break
			}
			pat.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		for _, i := range sIdx {
			if s.Len() > 7 {
				break
			}
			s.WriteByte(alphabet[int(i)%2])
		}
		p := New(pat.String())
		caps, ok := p.MatchCapture(s.String())
		if ok != p.Match(s.String()) {
			return false
		}
		if !ok {
			return true
		}
		// Reconstruct: literals from the pattern, captures for wildcards.
		var rebuilt strings.Builder
		ci := 0
		for k := 0; k < pat.Len(); k++ {
			switch pat.String()[k] {
			case '*', '?':
				if ci >= len(caps) {
					return false
				}
				rebuilt.WriteString(caps[ci])
				ci++
			default:
				rebuilt.WriteByte(pat.String()[k])
			}
		}
		return rebuilt.String() == s.String() && ci == len(caps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}

// The compiled matcher must agree with the recursive reference
// implementation on every pattern, including classes, negation, and the
// malformed-bracket corner cases.  Patterns are drawn from an alphabet
// rich in glob metacharacters so brackets, ranges, and trailing '[' all
// come up.
func TestCompiledAgainstReference(t *testing.T) {
	alphabet := []byte{'a', 'b', 'c', '*', '?', '[', ']', '~', '^', '-'}
	f := func(patIdx, sIdx []uint8) bool {
		var pat, s strings.Builder
		for _, i := range patIdx {
			if pat.Len() > 8 {
				break
			}
			pat.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		for _, i := range sIdx {
			if s.Len() > 10 {
				break
			}
			s.WriteByte(alphabet[int(i)%3]) // letters only
		}
		p := New(pat.String())
		if !p.HasWild() {
			return true // Match short-circuits to string equality
		}
		got := compileFresh(p).match(0, s.String(), 0)
		want := matchHere(p, 0, s.String(), 0)
		if got != want {
			t.Logf("pattern %q vs %q: compiled=%v reference=%v", pat.String(), s.String(), got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// compileFresh bypasses the cache so the differential test exercises
// compilation itself every time.
func compileFresh(p Pattern) *compiled {
	return compilePattern(p)
}

// A Concat that mixes quoted and unquoted wildcards carries a mask
// (literal text may contain metacharacters that must NOT be special);
// the compiled path must honor it.
func TestCompiledHonorsMask(t *testing.T) {
	tests := []struct {
		lit, wild, s string
		want         bool
	}{
		{"a*b", "*", "a*bXX", true},  // literal star, then real star
		{"a*b", "*", "aXbYY", false}, // literal star must not match X
		{"[x]", "?", "[x]q", true},   // literal brackets stay literal
		{"[x]", "?", "xq", false},    //
		{"", "[ab]", "a", true},      // class still compiles under Concat
		{"", "[ab]", "c", false},     //
	}
	for _, tc := range tests {
		p := Concat(NewLiteral(tc.lit), New(tc.wild))
		if got := p.Match(tc.s); got != tc.want {
			t.Errorf("Concat(lit %q, %q).Match(%q) = %v, want %v", tc.lit, tc.wild, tc.s, got, tc.want)
		}
	}
}

// A quoted pattern is a flag, not a mask: NewLiteral allocates nothing,
// and a Concat whose join does not mix quoted and unquoted wildcards
// allocates only the joined text.  A mixed join adds its mask.
func TestQuotingAllocations(t *testing.T) {
	var sink Pattern
	if n := testing.AllocsPerRun(100, func() { sink = NewLiteral("a*") }); n != 0 {
		t.Errorf("NewLiteral made %v allocations, want 0", n)
	}
	for _, tc := range []struct {
		a, b  Pattern
		mixed bool
	}{
		{New("a*"), NewLiteral("bc"), false},
		{NewLiteral("a"), New("*.c"), false},
		{New("ab"), NewLiteral("*"), false},
		{NewLiteral("*"), NewLiteral("?"), false},
		{New("*"), New("?"), false},
		{NewLiteral("*"), New("*"), true},
	} {
		want := 1.0
		if tc.mixed {
			want = 2
		}
		if n := testing.AllocsPerRun(100, func() { sink = Concat(tc.a, tc.b) }); n != want {
			t.Errorf("Concat(%q, %q) made %v allocations, want %v", tc.a, tc.b, n, want)
		}
		if got := Concat(tc.a, tc.b).Mixed(); got != tc.mixed {
			t.Errorf("Concat(%q, %q).Mixed() = %v, want %v", tc.a, tc.b, got, tc.mixed)
		}
	}
	_ = sink
}

// Repeated matching of the same all-magic pattern reuses one compiled
// form; flushing drops it.
func TestCompiledCacheCounters(t *testing.T) {
	FlushCache()
	before := CacheStats()
	p := New("*.[ch]")
	p.Match("main.c")
	p.Match("main.h")
	p.Match("main.go")
	after := CacheStats()
	if after.Misses-before.Misses != 1 {
		t.Errorf("expected exactly 1 compile miss, got %d", after.Misses-before.Misses)
	}
	if after.Hits-before.Hits != 2 {
		t.Errorf("expected 2 cache hits, got %d", after.Hits-before.Hits)
	}
	FlushCache()
	if CacheStats().Entries != 0 {
		t.Errorf("flush left %d entries", CacheStats().Entries)
	}
}

// The compiled matcher is the fast path Match actually uses; guard the
// speedup over the recursive reference on a star-heavy pattern.
func BenchmarkMatchCompiled(b *testing.B) {
	p := New("*.[ch]")
	s := "internal/glob/glob_test.c"
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.Match(s)
	}
}

func BenchmarkMatchReference(b *testing.B) {
	p := New("*.[ch]")
	s := "internal/glob/glob_test.c"
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		matchHere(p, 0, s, 0)
	}
}
