package glob

import (
	"slices"
	"testing"
)

// FuzzMatch: matching terminates without panics on arbitrary patterns,
// and a literal pattern matches exactly itself.
func FuzzMatch(f *testing.F) {
	f.Add("a*b?c[d-f]", "axbycd")
	f.Add("[", "[")
	f.Add("[~]]", "]")
	f.Add("***", "")
	f.Fuzz(func(t *testing.T, pat, s string) {
		p := New(pat)
		got := p.Match(s)
		if p.HasWild() {
			if want := matchHere(p, 0, s, 0); got != want {
				t.Fatalf("compiled Match(%q, %q) = %v, reference = %v", pat, s, got, want)
			}
		}
		lit := NewLiteral(pat)
		if !lit.Match(pat) {
			t.Fatalf("literal %q does not match itself", pat)
		}
		if pat != s && lit.Match(s) && pat != s {
			t.Fatalf("literal %q matched %q", pat, s)
		}
	})
}

// FuzzQuoting: a pattern folded by Concat from one-byte New and
// NewLiteral patterns, quoted where quoting says, matches, captures and
// reports wildcards as the reference matchers do over the same text with
// that quoting spelled out as a mask.  It is masked exactly when it is
// Mixed, which it is exactly when it has a quoted and an unquoted '*',
// '?' or '['.
func FuzzQuoting(f *testing.F) {
	f.Add("a*b?c[d-f]", []byte{0, 1, 0, 0, 0, 1}, "a*bycd")
	f.Add("**", []byte{1, 0}, "*x")
	f.Add("[ab]*", []byte{1}, "[ab]*")
	f.Add("[ab]*", []byte{0, 0, 0, 1, 0}, "ax")
	f.Add("?[?]", []byte{0, 1, 0, 0}, "x[b]")
	f.Add("*.c", []byte{1, 1, 1}, "a.c")
	f.Fuzz(func(t *testing.T, text string, quoting []byte, s string) {
		if len(text) > 24 || len(s) > 24 {
			t.Skip("oversized input")
		}
		mask := make([]bool, len(text))
		p := New("")
		var magic, quoted bool
		for i := 0; i < len(text); i++ {
			mask[i] = i < len(quoting) && quoting[i]&1 != 0
			one := New(text[i : i+1])
			if mask[i] {
				one = NewLiteral(text[i : i+1])
			}
			p = Concat(p, one)
			switch text[i] {
			case '*', '?', '[':
				magic = magic || !mask[i]
				quoted = quoted || mask[i]
			}
		}
		ref := Pattern{text: text, lit: mask}
		if p.String() != text {
			t.Fatalf("the fold of %q is %q", text, p.String())
		}
		if p.HasWild() != magic {
			t.Errorf("HasWild(%q, %v) = %v, want %v", text, mask, p.HasWild(), magic)
		}
		if p.Mixed() != (magic && quoted) || (p.lit != nil) != p.Mixed() {
			t.Errorf("%q, %v: Mixed = %v with mask %v; a quoted wildcard: %v, an unquoted one: %v",
				text, mask, p.Mixed(), p.lit, quoted, magic)
		}
		if got, want := p.Match(s), matchHere(ref, 0, s, 0); got != want {
			t.Errorf("Match(%q, %v; %q) = %v, reference = %v", text, mask, s, got, want)
		}
		caps, ok := p.MatchCapture(s)
		wantCaps, wantOK := captureHere(ref, 0, s, 0)
		if ok != wantOK || !slices.Equal(caps, wantCaps) {
			t.Errorf("MatchCapture(%q, %v; %q) = %q, %v, reference = %q, %v", text, mask, s, caps, ok, wantCaps, wantOK)
		}
	})
}
