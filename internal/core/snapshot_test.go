package core

import (
	"strings"
	"testing"
)

// The regression the snapshot work surfaced: a captured binding whose
// value is itself a closure WITH captures encodes as a nested
// %closure(...) form, which the old decodeBindings pushed through the
// surface parser inside a synthetic `let` — a parse error, silently
// returning a nil environment and losing every captured variable.
func TestDecodeNestedClosureCaptures(t *testing.T) {
	i := New()
	inner := closureOf(t, "{echo $x}", &Binding{Name: "x", Value: StrList("1")})
	outer := closureOf(t, "{$f}", &Binding{Name: "f", Value: List{{Closure: inner}}})
	enc := EncodeClosure(outer)
	want := "%closure(f=%closure(x=1)@ * {echo $x})@ * {$f}"
	if enc != want {
		t.Fatalf("encoded = %q, want %q", enc, want)
	}
	dec := i.DecodeValue("fn-t", enc)
	if len(dec) != 1 || dec[0].Closure == nil {
		t.Fatalf("decode failed: %v", dec)
	}
	if re := EncodeClosure(dec[0].Closure); re != enc {
		t.Errorf("round trip changed: %q -> %q", enc, re)
	}
	// The nested closure must come back as a closure with ITS captures.
	fb := dec[0].Closure.Env.Lookup("f")
	if fb == nil || len(fb.Value) != 1 || fb.Value[0].Closure == nil {
		t.Fatalf("nested closure lost: %+v", fb)
	}
	xb := fb.Value[0].Closure.Env.Lookup("x")
	if xb == nil || len(xb.Value) != 1 || xb.Value[0].Str != "1" {
		t.Fatalf("nested captures lost: %+v", xb)
	}
}

// Deeper nesting and mixed values keep round-tripping.
func TestDecodeNestedClosureDepth(t *testing.T) {
	i := New()
	l3 := closureOf(t, "{echo $z deep}", &Binding{Name: "z", Value: StrList("3", "z z")})
	l2 := closureOf(t, "{$g}", &Binding{Name: "g", Value: List{{Closure: l3}, {Str: "lit"}, {Prim: "echo"}}})
	l1 := closureOf(t, "{$h}", &Binding{Name: "h", Value: List{{Closure: l2}}})
	enc := EncodeClosure(l1)
	dec := i.DecodeValue("fn-t", enc)
	if len(dec) != 1 || dec[0].Closure == nil {
		t.Fatalf("decode failed: %q -> %v", enc, dec)
	}
	if re := EncodeClosure(dec[0].Closure); re != enc {
		t.Errorf("round trip changed:\n  %q\n  %q", enc, re)
	}
}

// Snapshot -> restore preserves export status exactly: noexport marks on
// set variables, on function definitions whose closures captured
// variables, and sticky marks on names that have no value yet.
func TestSnapshotRestoreNoExport(t *testing.T) {
	a := New()
	a.SetVarRaw("secret", StrList("hunter2"))
	a.SetNoExport("secret")
	a.SetVarRaw("public", StrList("42"))
	// A function whose closure captured a lexical binding, itself marked
	// noexport: the round trip must keep both the capture and the mark.
	fn := closureOf(t, "{echo $cap $secret}", &Binding{Name: "cap", Value: StrList("held")})
	a.SetVarRaw("fn-f", List{{Closure: fn}})
	a.SetNoExport("fn-f")
	// A sticky mark on a name never assigned (the phantom slot).
	a.SetNoExport("future")

	b := New()
	b.RestoreVars(a.SnapshotVars())

	if got := b.Var("secret").Flatten(" "); got != "hunter2" {
		t.Errorf("secret = %q", got)
	}
	fv := b.Var("fn-f")
	if len(fv) != 1 || fv[0].Closure == nil {
		t.Fatalf("fn-f lost: %v", fv)
	}
	if cb := fv[0].Closure.Env.Lookup("cap"); cb == nil || cb.Value.Flatten(" ") != "held" {
		t.Errorf("captured binding lost: %+v", cb)
	}
	env := strings.Join(b.ExportEnv(), "\n")
	if !strings.Contains(env, "public=42") {
		t.Errorf("public missing from export: %v", env)
	}
	if strings.Contains(env, "secret") || strings.Contains(env, "fn-f") {
		t.Errorf("noexport mark lost across restore: %v", env)
	}
	// The phantom mark stays sticky: assigning the name after restore
	// must still keep it out of the environment.
	b.SetVarRaw("future", StrList("now"))
	if strings.Contains(strings.Join(b.ExportEnv(), "\n"), "future") {
		t.Errorf("phantom noexport mark lost across restore")
	}
	if b.Defined("future2") {
		t.Errorf("stray variable appeared")
	}
}

// The null/empty-string distinction the environment cannot carry is
// carried by the snapshot records.
func TestSnapshotRestoreNullVsEmptyString(t *testing.T) {
	a := New()
	a.SetVarRaw("null", List{})
	a.SetVarRaw("empty", StrList(""))
	b := New()
	b.RestoreVars(a.SnapshotVars())
	if got := b.Var("null"); len(got) != 0 {
		t.Errorf("null list became %v", got)
	}
	if got := b.Var("empty"); len(got) != 1 || got[0].Str != "" {
		t.Errorf("empty string became %v", got)
	}
	if !b.Defined("null") || !b.Defined("empty") {
		t.Errorf("definedness lost: null=%v empty=%v", b.Defined("null"), b.Defined("empty"))
	}
}

// Snapshot of a lazily imported environment does no decode work and
// round-trips the raw strings unchanged.
func TestSnapshotLazySlots(t *testing.T) {
	a := New()
	a.ImportEnv([]string{"fn-g=%closure(a=b)@ * {echo $a}", "plain=x\x01y"})
	recs := a.SnapshotVars()
	byName := map[string]VarRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["fn-g"].Value != "%closure(a=b)@ * {echo $a}" {
		t.Errorf("lazy fn raw changed: %q", byName["fn-g"].Value)
	}
	if byName["plain"].Value != "x\x01y" {
		t.Errorf("lazy plain raw changed: %q", byName["plain"].Value)
	}
	b := New()
	b.RestoreVars(recs)
	if got := b.Var("plain").Flatten(","); got != "x,y" {
		t.Errorf("plain = %q", got)
	}
	if fv := b.Var("fn-g"); len(fv) != 1 || fv[0].Closure == nil {
		t.Errorf("fn-g did not decode after restore: %v", fv)
	}
}

// Snapshot -> restore -> re-snapshot is the identity on the records,
// including after every value has been force-decoded in the restored
// interpreter — the strong form, exercising encode(decode(x)) == x for
// the whole table.
func TestSnapshotRoundTripStable(t *testing.T) {
	a := New()
	a.SetVarRaw("words", StrList("a", "b c", "don't", ""))
	a.SetVarRaw("fn-id", List{{Closure: closureOf(t, "@ x {result $x}", nil)}})
	inner := closureOf(t, "{echo $n}", &Binding{Name: "n", Value: StrList("5")})
	a.SetVarRaw("fn-outer", List{{Closure: closureOf(t, "{$inner}",
		&Binding{Name: "inner", Value: List{{Closure: inner}}})}})
	a.SetNoExport("words")
	a.SetVarRaw("set-watched", List{{Closure: closureOf(t, "{result $*}", nil)}})

	first := a.SnapshotVars()
	b := New()
	b.RestoreVars(first)
	second := b.SnapshotVars()
	compareRecords(t, "lazy re-snapshot", first, second)

	// Force-decode everything, then snapshot again.
	for _, name := range b.VarNames() {
		b.Var(name)
	}
	third := b.SnapshotVars()
	compareRecords(t, "decoded re-snapshot", first, third)
}

func compareRecords(t *testing.T, label string, want, got []VarRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for k := range want {
		if want[k] != got[k] {
			t.Errorf("%s: record %d changed:\n  %+v\n  %+v", label, k, want[k], got[k])
		}
	}
}
