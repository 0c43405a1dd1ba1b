package core

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// SetNoExport on a name that was never assigned used to create a real
// varSlot, so Defined reported true and VarNames listed a variable no
// assignment ever created.  The mark must be remembered without making
// the variable visible.
func TestSetNoExportUnsetNameIsNotDefined(t *testing.T) {
	i := New()
	i.SetNoExport("ghost")
	if i.Defined("ghost") {
		t.Error("SetNoExport on an unset name made Defined report true")
	}
	for _, n := range i.VarNames() {
		if n == "ghost" {
			t.Error("SetNoExport on an unset name made VarNames list it")
		}
	}
	if v := i.Var("ghost"); v != nil {
		t.Errorf("Var on a noexport-marked unset name = %v, want nil", v)
	}
	// The mark itself must survive: a later assignment defines the
	// variable normally but keeps it out of the environment.
	i.SetVarRaw("ghost", StrList("now set"))
	if !i.Defined("ghost") {
		t.Error("assignment after SetNoExport did not define the variable")
	}
	found := false
	for _, n := range i.VarNames() {
		if n == "ghost" {
			found = true
		}
	}
	if !found {
		t.Error("assigned noexport variable missing from VarNames")
	}
	for _, kv := range i.ExportEnv() {
		if strings.HasPrefix(kv, "ghost=") {
			t.Errorf("noexport variable exported: %q", kv)
		}
	}
}

// The noexport mark (phantom or not) must survive Fork, and a phantom
// slot must stay invisible in the child too.
func TestSetNoExportSurvivesFork(t *testing.T) {
	i := New()
	i.SetNoExport("ghost")
	i.SetVarRaw("vis", StrList("v"))
	i.SetNoExport("vis")
	child := i.Fork()
	if child.Defined("ghost") {
		t.Error("phantom noexport slot became Defined in fork")
	}
	child.SetVarRaw("ghost", StrList("x"))
	for _, kv := range child.ExportEnv() {
		if strings.HasPrefix(kv, "ghost=") || strings.HasPrefix(kv, "vis=") {
			t.Errorf("noexport variable exported from fork: %q", kv)
		}
	}
}

// Command dispatch looks up "fn-"+name on every command; Var must not let
// name escape, or that string is built on the heap each time.
func TestVarLookupDoesNotAllocate(t *testing.T) {
	i := New()
	i.SetVarRaw("fn-f", StrList("g"))
	i.Fork() // fold, so the lookup falls through an overlay to the base
	i.SetVarRaw("other", StrList("o"))
	for _, name := range []string{"f", "missing"} {
		if n := testing.AllocsPerRun(100, func() { i.Var("fn-" + name) }); n != 0 {
			t.Errorf("Var(\"fn-%s\") made %v allocations", name, n)
		}
	}
}

// Spawn shares the template's frozen globals instead of copying them, so
// a session costs the same allocations however many the template holds.
func TestSpawnAllocsIndependentOfGlobals(t *testing.T) {
	tmpl := New()
	define := func(from, to int) {
		for k := from; k < to; k++ {
			tmpl.SetVarRaw("v"+strconv.Itoa(k), StrList("a", "b"))
		}
	}
	// AllocsPerRun's warm-up call folds the definitions into the base.
	spawn := func() float64 { return testing.AllocsPerRun(100, func() { tmpl.Spawn() }) }
	define(0, 60)
	small := spawn()
	define(60, 1060)
	if big := spawn(); big != small {
		t.Errorf("Spawn allocs: %v with 60 globals, %v with 1060", small, big)
	}
}

// forkView is everything one side of a fork shows of its globals.
type forkView struct {
	vals          []List
	defined, lazy []bool
	names, env    []string
	snap          []VarRecord
}

var forkViewNames = []string{"a", "fresh", "ghost", "fn-lazy", "plain"}

func viewOf(i *Interp) forkView {
	var v forkView
	for _, n := range forkViewNames {
		if n != "fn-lazy" { // reading it would decode it
			v.vals = append(v.vals, i.Var(n))
		}
		v.defined = append(v.defined, i.Defined(n))
		s := i.slot(n)
		v.lazy = append(v.lazy, s != nil && s.lazy)
	}
	v.names, v.env, v.snap = i.VarNames(), i.ExportEnv(), i.SnapshotVars()
	return v
}

// After a fork neither side sees any write the other makes, of any kind,
// whether or not a later fork has folded it into a new base.
func TestForkIsolationMatrix(t *testing.T) {
	ops := []struct {
		name string
		do   func(*Interp)
	}{
		{"assign", func(i *Interp) { i.SetVarRaw("a", StrList("changed")) }},
		{"create", func(i *Interp) { i.SetVarRaw("fresh", StrList("new")) }},
		{"unset", func(i *Interp) { i.SetVarRaw("a", nil) }},
		{"unset-imported", func(i *Interp) { i.SetVarRaw("plain", nil) }},
		{"noexport", func(i *Interp) { i.SetNoExport("a") }},
		{"noexport-unset", func(i *Interp) { i.SetNoExport("ghost") }},
		{"decode", func(i *Interp) { i.Var("fn-lazy"); i.Var("plain") }},
		{"restore", func(i *Interp) { i.RestoreVars([]VarRecord{{Name: "fresh", Value: "r"}}) }},
	}
	for _, op := range ops {
		for _, childActs := range []bool{false, true} {
			for _, refork := range []bool{false, true} {
				parent := New()
				// The double space re-encodes as one once decoded, so a
				// decode leaking into the shared slot would show.
				parent.ImportEnv([]string{"fn-lazy=@ * {echo  lazy}", "plain=x\x01y"})
				parent.SetVarRaw("a", StrList("orig"))
				child := parent.Fork()
				actor, observer := parent, child
				if childActs {
					actor, observer = child, parent
				}
				before := viewOf(observer)
				op.do(actor)
				if refork {
					actor.Fork()
				}
				if after := viewOf(observer); !reflect.DeepEqual(before, after) {
					t.Errorf("%s by child=%v (refork %v) leaked:\n before %+v\n after  %+v",
						op.name, childActs, refork, before, after)
				}
				if reflect.DeepEqual(viewOf(actor), before) {
					t.Errorf("%s by child=%v (refork %v) changed nothing", op.name, childActs, refork)
				}
			}
		}
	}
}

// esd spawns every session from one template, each on its connection's
// own goroutine, so concurrent Spawns must be race-free even while the
// template holds writes no fork has folded yet.
func TestConcurrentSpawnFromUnfoldedTemplate(t *testing.T) {
	tmpl := New()
	for k := 0; k < 60; k++ {
		tmpl.SetVarRaw("v"+strconv.Itoa(k), StrList("tmpl"))
	}
	tmpl.ImportEnv([]string{"lazy=x"})
	shared := &Binding{Name: "s", Value: StrList("tmpl")}
	tmpl.SetVarRaw("fn-f", List{{Closure: closureOf(t, "{echo $s}", shared)}})

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(mark string) {
			defer wg.Done()
			s := tmpl.Spawn()
			if got := s.Var("v0").Flatten(""); got != "tmpl" {
				t.Errorf("session sees v0 = %q", got)
			}
			s.Var("lazy")
			s.SetVarRaw("v1", StrList(mark))
			cl := s.Var("fn-f")[0].Closure
			if cl.Env == shared {
				t.Error("session shares the template's binding")
			}
			cl.Env.Value = StrList(mark)
			sub := s.Fork()
			if got := sub.Var("v1").Flatten(""); got != mark {
				t.Errorf("fork of session sees v1 = %q, want %q", got, mark)
			}
			if got := sub.Var("fn-f")[0].Closure.Env.Value.Flatten(""); got != mark {
				t.Errorf("fork of session sees s = %q, want %q", got, mark)
			}
		}(strconv.Itoa(g))
	}
	wg.Wait()
	if got := tmpl.Var("v1").Flatten(""); got != "tmpl" {
		t.Errorf("template v1 = %q", got)
	}
	if got := shared.Value.Flatten(""); got != "tmpl" {
		t.Errorf("template binding = %q", got)
	}
}
