package core

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

func TestIOTableBasics(t *testing.T) {
	in := strings.NewReader("input")
	var out, errw bytes.Buffer
	tbl := NewIOTable(in, &out, &errw)

	if tbl.Reader(0) != in {
		t.Error("fd 0")
	}
	if tbl.Writer(1) != &out || tbl.Writer(2) != &errw {
		t.Error("fd 1/2")
	}
	// Unbound descriptors read EOF and discard writes.
	buf := make([]byte, 4)
	if n, err := tbl.Reader(5).Read(buf); n != 0 || err != io.EOF {
		t.Error("unbound read should be EOF")
	}
	if _, err := tbl.Writer(5).Write([]byte("x")); err != nil {
		t.Error("unbound write should discard")
	}
	fds := tbl.Fds()
	if len(fds) != 3 {
		t.Errorf("fds = %v", fds)
	}
}

func TestIOTablePersistence(t *testing.T) {
	var a, b bytes.Buffer
	tbl := NewIOTable(nil, &a, io.Discard)
	tbl2 := tbl.WithFD(1, &b)
	tbl.Writer(1).Write([]byte("one"))
	tbl2.Writer(1).Write([]byte("two"))
	if a.String() != "one" || b.String() != "two" {
		t.Errorf("tables shared state: a=%q b=%q", a.String(), b.String())
	}
	// Closing removes the descriptor from the copy only.
	tbl3 := tbl.WithFD(1, nil)
	if tbl3.Get(1) != nil {
		t.Error("WithFD(nil) did not close")
	}
	if tbl.Get(1) == nil {
		t.Error("close leaked to original")
	}
}

func TestIOTableFileMaterialization(t *testing.T) {
	// An os.File entry is returned directly.
	f, err := os.CreateTemp(t.TempDir(), "io")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tbl := NewIOTable(nil, f, nil)
	got, done, err := tbl.File(1, false)
	if err != nil || got != f || done != nil {
		t.Errorf("File on *os.File: got=%v hasDone=%v err=%v", got, done != nil, err)
	}

	// A plain writer is bridged through a pipe + copier.
	var buf bytes.Buffer
	tbl2 := NewIOTable(nil, &buf, nil)
	w, done2, err := tbl2.File(1, false)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteString("bridged")
	done2()
	if buf.String() != "bridged" {
		t.Errorf("bridge = %q", buf.String())
	}

	// A plain reader bridges the other way.
	tbl3 := NewIOTable(strings.NewReader("data in"), nil, nil)
	r, done3, err := tbl3.File(0, true)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := io.ReadAll(r)
	done3()
	if string(all) != "data in" {
		t.Errorf("input bridge = %q", all)
	}

	// An unbound descriptor materializes as the null device.
	null, done4, err := tbl3.File(7, false)
	if err != nil || null == nil {
		t.Fatalf("null device: %v", err)
	}
	null.WriteString("gone")
	done4()
}

func TestCtxTailTransitions(t *testing.T) {
	tbl := NewIOTable(nil, io.Discard, io.Discard)
	ctx := &Ctx{IO: tbl}
	if ctx.Tail {
		t.Error("fresh ctx should be non-tail")
	}
	tail := ctx.InTail()
	if !tail.Tail || tail.IO != tbl {
		t.Error("InTail broken")
	}
	if tail.InTail() != tail {
		t.Error("InTail should be idempotent")
	}
	nt := tail.NonTail()
	if nt.Tail {
		t.Error("NonTail broken")
	}
	if ctx.NonTail() != ctx {
		t.Error("NonTail on non-tail should return self")
	}
	var buf bytes.Buffer
	w := ctx.WithIO(tbl.WithFD(1, &buf))
	w.Stdout().Write([]byte("hi"))
	if buf.String() != "hi" {
		t.Error("WithIO broken")
	}
}

// TestCtxFlipsAllocateNothing: the contexts NonTail, InTail and WithIO
// hand out are the table's own.
func TestCtxFlipsAllocateNothing(t *testing.T) {
	tbl := NewIOTable(nil, io.Discard, io.Discard)
	other := tbl.WithFD(1, &bytes.Buffer{})
	ctx := tbl.Ctx()
	var got *Ctx
	for _, tc := range []struct {
		name string
		flip func()
		io   *IOTable
		tail bool
	}{
		{"NonTail", func() { got = ctx.InTail().NonTail() }, tbl, false},
		{"InTail", func() { got = ctx.NonTail().InTail() }, tbl, true},
		{"WithIO", func() { got = ctx.InTail().WithIO(other) }, other, true},
	} {
		if n := testing.AllocsPerRun(100, tc.flip); n != 0 {
			t.Errorf("%s allocates %v times", tc.name, n)
		}
		if got.IO != tc.io || got.Tail != tc.tail {
			t.Errorf("%s gave %+v", tc.name, got)
		}
	}
	// A context built by hand still flips.
	bare := &Ctx{IO: &IOTable{}}
	if tail := bare.InTail(); !tail.Tail || tail.IO != bare.IO || tail.NonTail().Tail {
		t.Error("a table without contexts does not flip")
	}
}

func TestForkDeepCopySharing(t *testing.T) {
	// Two closures over one binding must still share after the fork —
	// with each other, but not with the parent's pair.
	i := New()
	shared := &Binding{Name: "s", Value: StrList("orig")}
	c1 := closureOf(t, "{echo $s}", shared)
	c2 := &Closure{Unit: c1.Unit, Env: shared}
	i.SetVarRaw("f1", List{{Closure: c1}})
	i.SetVarRaw("f2", List{{Closure: c2}})

	child := i.Fork()
	g1 := child.Var("f1")[0].Closure
	g2 := child.Var("f2")[0].Closure
	if g1 == c1 || g2 == c2 {
		t.Fatal("fork did not copy closures")
	}
	if g1.Env != g2.Env {
		t.Error("fork broke sharing between sibling closures")
	}
	if g1.Env == shared {
		t.Error("fork shares bindings with parent")
	}
	// The compiled body is immutable and may be shared.
	if g1.Unit != c1.Unit {
		t.Error("fork needlessly copied the unit")
	}
	// Mutation in the child is invisible to the parent.
	g1.Env.Value = StrList("child")
	if shared.Value.Flatten("") != "orig" {
		t.Error("child mutation leaked")
	}
}

func TestForkCyclicEnv(t *testing.T) {
	// A binding whose value contains a closure over that same binding
	// (the recursive-structure case) must fork without looping.
	i := New()
	b := &Binding{Name: "self"}
	cl := closureOf(t, "{echo self}", b)
	b.Value = List{{Closure: cl}}
	i.SetVarRaw("rec", List{{Closure: cl}})
	child := i.Fork()
	got := child.Var("rec")[0].Closure
	if got == cl {
		t.Fatal("not copied")
	}
	if got.Env.Value[0].Closure != got {
		t.Error("cycle not preserved through fork")
	}
}

func TestJobsTable(t *testing.T) {
	i := New()
	done := make(chan struct{})
	id1 := i.StartJob(func() List { <-done; return StrList("one") })
	id2 := i.StartJob(func() List { return StrList("two") })
	if ids := i.JobIDs(); len(ids) != 2 || ids[0] != id1 || ids[1] != id2 {
		t.Errorf("JobIDs = %v", ids)
	}
	close(done)
	res, ok := i.WaitJob(id1)
	if !ok || res.Flatten("") != "one" {
		t.Errorf("WaitJob = %v %v", res, ok)
	}
	// Reaped.
	if _, ok := i.WaitJob(id1); ok {
		t.Error("job not reaped")
	}
	_, res2, ok := i.WaitAny()
	if !ok || res2.Flatten("") != "two" {
		t.Errorf("WaitAny = %v %v", res2, ok)
	}
	if _, _, ok := i.WaitAny(); ok {
		t.Error("WaitAny with no jobs should report none")
	}
}

func TestJobsSharedWithFork(t *testing.T) {
	i := New()
	id := i.StartJob(func() List { return StrList("r") })
	child := i.Fork()
	res, ok := child.WaitJob(id)
	if !ok || res.Flatten("") != "r" {
		t.Error("fork cannot wait for parent jobs")
	}
}
