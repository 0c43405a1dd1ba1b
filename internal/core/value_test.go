package core

import (
	"strings"
	"testing"
	"testing/quick"

	"es/internal/compile"
)

// closureOf makes a closure of the lambda src spells, such as "{echo hi}"
// or "@ a b {echo hi}", over env.
func closureOf(t testing.TB, src string, env *Binding) *Closure {
	t.Helper()
	val := New().DecodeValue("fn-x", src)
	if len(val) != 1 || val[0].Closure == nil {
		t.Fatalf("decode %q: %v", src, val)
	}
	return &Closure{Unit: val[0].Closure.Unit, Env: env}
}

func TestListTruth(t *testing.T) {
	cl := closureOf(t, "{}", nil)
	tests := []struct {
		l    List
		want bool
	}{
		{List{}, true},
		{StrList("0"), true},
		{StrList(""), true},
		{StrList("0", "0", ""), true},
		{StrList("1"), false},
		{StrList("0", "1"), false},
		{StrList("hello"), false},
		{StrList("sigint"), false},
		{List{Term{Closure: cl}}, false},
		{List{Term{Prim: "echo"}}, false},
	}
	for _, tt := range tests {
		if got := tt.l.True(); got != tt.want {
			t.Errorf("True(%v) = %v, want %v", tt.l, got, tt.want)
		}
	}
}

func TestBoolRoundTrip(t *testing.T) {
	if !Bool(true).True() || Bool(false).True() {
		t.Fatal("Bool is inconsistent with True")
	}
	if !True().True() || False().True() {
		t.Fatal("True/False constants broken")
	}
}

// concat joins a and b as the evaluator's ^ does (compile.Concat with
// joinTerms), after a term the join must leave alone, as it does the
// terms of earlier words.
func concat(t *testing.T, a, b List) (List, bool) {
	t.Helper()
	out := append(append(StrList("before"), a...), b...)
	joined, ok := compile.Concat(out, 1, 1+len(a), joinTerms)
	if !ok {
		return nil, false
	}
	if joined[0].Str != "before" {
		t.Fatalf("join wrote before its start: %v", joined)
	}
	return joined[1:], true
}

func TestConcatSemantics(t *testing.T) {
	tests := []struct {
		a, b []string
		want []string
		err  bool
	}{
		{[]string{"a"}, []string{"b"}, []string{"ab"}, false},
		{[]string{"a"}, []string{"1", "2", "3"}, []string{"a1", "a2", "a3"}, false},
		{[]string{"1", "2"}, []string{"x"}, []string{"1x", "2x"}, false},
		{[]string{"1", "2"}, []string{"a", "b"}, []string{"1a", "2b"}, false},
		{[]string{"1", "2"}, []string{"a", "b", "c"}, nil, true},
		{nil, []string{"a"}, nil, true},
		{[]string{"a"}, nil, nil, true},
	}
	for _, tt := range tests {
		got, ok := concat(t, StrList(tt.a...), StrList(tt.b...))
		if ok == tt.err {
			t.Errorf("concat(%v,%v) ok = %v", tt.a, tt.b, ok)
			continue
		}
		if ok && got.Flatten(",") != strings.Join(tt.want, ",") {
			t.Errorf("concat(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	// A closure or primitive joins by its unparsed form.
	cl := Term{Closure: closureOf(t, "{echo hi}", nil)}
	got, ok := concat(t, List{cl, {Prim: "echo"}}, StrList("!"))
	if !ok || got.Flatten(",") != "{echo hi}!,$&echo!" || got[0].Closure != nil {
		t.Errorf("terms joined = %v, %v", got, ok)
	}
}

// Concat length law: |a ^ b| = max(|a|, |b|) whenever both non-empty and
// compatible.
func TestConcatLengthProperty(t *testing.T) {
	f := func(a, b []string) bool {
		la, lb := len(a), len(b)
		got, ok := concat(t, StrList(a...), StrList(b...))
		compatible := la > 0 && lb > 0 && (la == 1 || lb == 1 || la == lb)
		if !compatible {
			return !ok
		}
		want := la
		if lb > want {
			want = lb
		}
		return ok && len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTrueFalseShared: the status lists are shared, so they allocate
// nothing, and capped, so an append to one copies it.
func TestTrueFalseShared(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = True(), False() }); n != 0 {
		t.Errorf("True and False allocate %v times", n)
	}
	grown := append(True(), Term{Str: "more"})
	grown[0].Str = "changed"
	if got := True(); len(got) != 1 || got[0].Str != "0" || !got.True() {
		t.Errorf("True() after an append to it = %v", got)
	}
	if got := append(False(), False()...); got.Flatten(" ") != "1 1" || len(False()) != 1 {
		t.Errorf("False() appended to = %v", got)
	}
}

func TestTermString(t *testing.T) {
	if got := StrTerm("plain").String(); got != "plain" {
		t.Errorf("string term = %q", got)
	}
	if got := (Term{Prim: "create"}).String(); got != "$&create" {
		t.Errorf("prim term = %q", got)
	}
	cl := closureOf(t, "{echo hi}", nil)
	if got := (Term{Closure: cl}).String(); got != "{echo hi}" {
		t.Errorf("closure term = %q", got)
	}
	cl2 := closureOf(t, "@ a b {echo hi}", nil)
	if got := (Term{Closure: cl2}).String(); got != "@ a b {echo hi}" {
		t.Errorf("lambda term = %q", got)
	}
}

func TestFlattenAndStrings(t *testing.T) {
	l := StrList("a", "b", "c")
	if l.Flatten(":") != "a:b:c" {
		t.Errorf("Flatten = %q", l.Flatten(":"))
	}
	if strings.Join(l.Strings(), "") != "abc" {
		t.Errorf("Strings = %v", l.Strings())
	}
	if (List{}).Flatten(":") != "" {
		t.Error("empty flatten")
	}
}

func TestListEqual(t *testing.T) {
	cl := closureOf(t, "{}", nil)
	a := List{StrTerm("x"), {Closure: cl}}
	b := List{StrTerm("x"), {Closure: cl}}
	if !a.Equal(b) {
		t.Error("identical lists unequal")
	}
	c := List{StrTerm("x"), {Closure: closureOf(t, "{}", nil)}}
	if a.Equal(c) {
		t.Error("different closures equal")
	}
	if a.Equal(a[:1]) {
		t.Error("different lengths equal")
	}
}

func TestBindingLookup(t *testing.T) {
	inner := &Binding{Name: "x", Value: StrList("inner"),
		Next: &Binding{Name: "y", Value: StrList("why"),
			Next: &Binding{Name: "x", Value: StrList("outer")}}}
	if b := inner.Lookup("x"); b == nil || b.Value.Flatten("") != "inner" {
		t.Error("innermost binding not found first")
	}
	if b := inner.Lookup("y"); b == nil || b.Value.Flatten("") != "why" {
		t.Error("y not found")
	}
	if inner.Lookup("z") != nil {
		t.Error("phantom binding")
	}
	var nilChain *Binding
	if nilChain.Lookup("x") != nil {
		t.Error("nil chain lookup should be nil")
	}
}

func TestExceptionAccessors(t *testing.T) {
	err := ErrorExc("something", "bad")
	e := AsException(err)
	if e == nil || e.Name() != "error" {
		t.Fatalf("AsException: %v", e)
	}
	if e.Error() != "error something bad" {
		t.Errorf("Error() = %q", e.Error())
	}
	if !ExcNamed(err, "error") || ExcNamed(err, "eof") {
		t.Error("ExcNamed broken")
	}
	if _, ok := ReturnValue(err); ok {
		t.Error("error exception mistaken for return")
	}
	ret := Throw(append(StrList("return"), StrList("a", "b")...))
	v, ok := ReturnValue(ret)
	if !ok || v.Flatten(",") != "a,b" {
		t.Errorf("ReturnValue = %v, %v", v, ok)
	}
	if AsException(errPlain{}) != nil {
		t.Error("non-exception treated as exception")
	}
}

type errPlain struct{}

func (errPlain) Error() string { return "plain" }
