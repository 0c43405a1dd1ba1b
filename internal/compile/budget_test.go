package compile

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"es/internal/syntax"
)

// unitBudget is the most a program's compiled units may weigh, as a
// fraction of the heap bytes of the rewritten tree they are lowered from.
// A program replaces its tree in the parse cache, so its units are what
// the cache keeps of every program it holds.
const unitBudget = 0.45

// scanBudget is the most of a lowered program's heap bytes the collector
// may have to scan: every table but Units holds no pointer, so a cached
// program adds little to each collection's mark work.
const scanBudget = 0.15

// TestUnitBytesWithinBudget lowers a corpus of higher-order programs
// (map/filter/fold, subscripts, match dispatch and currying, one in four
// behind a builtin pipeline) and weighs the trees and the units on the
// heap, nested units included.
func TestUnitBytesWithinBudget(t *testing.T) {
	srcs := programCorpus(256)
	treeBytes, unitBytes := weigh(t, srcs)
	n := float64(len(srcs))
	ratio := float64(unitBytes) / float64(treeBytes)
	t.Logf("per program: tree %.0f B, units %.0f B (%.2fx)", float64(treeBytes)/n, float64(unitBytes)/n, ratio)
	if ratio > unitBudget {
		t.Errorf("units take %.2fx their trees' bytes, budget %.2fx", ratio, unitBudget)
	}
}

// TestProgramScanWithinBudget lowers the corpus with its sources, as the
// parse cache does, and weighs the programs' live and scannable heap
// bytes after a collection.
func TestProgramScanWithinBudget(t *testing.T) {
	srcs := programCorpus(256)
	trees := make([]*syntax.Block, len(srcs))
	for k, src := range srcs {
		trees[k] = parseRewrite(t, src)
	}
	live0, scan0 := heapAfterGC()
	units := make([]*Unit, len(trees))
	for k, b := range trees {
		units[k], _ = Compile(b, &srcs[k])
	}
	live1, scan1 := heapAfterGC()
	runtime.KeepAlive(trees)
	runtime.KeepAlive(units)
	n := float64(len(srcs))
	live, scan := float64(live1-live0), float64(scan1-scan0)
	t.Logf("per program: %.0f B live, %.0f B scannable (%.2fx)", live/n, scan/n, scan/live)
	if scan > scanBudget*live {
		t.Errorf("the collector scans %.2fx of the programs' bytes, budget %.2fx", scan/live, scanBudget)
	}
}

// heapAfterGC is the live and the scannable heap after a full collection.
func heapAfterGC() (live, scan int64) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64())
}

// TestProgramTablesHoldNoPointers: no table of a program but Units has an
// element type that holds a pointer, so the collector scans none of them.
func TestProgramTablesHoldNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Program{})
	for k := 0; k < typ.NumField(); k++ {
		f := typ.Field(k)
		if f.Type.Kind() != reflect.Slice || f.Name == "Units" {
			continue
		}
		if pointers(f.Type.Elem()) {
			t.Errorf("Program.%s holds %s, which has pointers", f.Name, f.Type.Elem())
		}
	}
}

// pointers reports whether a value of type t holds a pointer.
func pointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && pointers(t.Elem())
	case reflect.Struct:
		for k := 0; k < t.NumField(); k++ {
			if pointers(t.Field(k).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// BenchmarkCompileProgram lowers programs of the same four shapes, one at
// a time, and reports the heap bytes one program's units keep.
func BenchmarkCompileProgram(b *testing.B) {
	srcs := programCorpus(64)
	_, unitBytes := weigh(b, srcs)
	trees := make([]*syntax.Block, len(srcs))
	for k, src := range srcs {
		trees[k] = parseRewrite(b, src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		Compile(trees[k%len(trees)], nil)
	}
	b.ReportMetric(float64(unitBytes)/float64(len(srcs)), "unit-B/prog")
}

// weigh parses and rewrites srcs, lowers each tree, and returns the live
// heap bytes of the trees and of the units.  A root unit keeps its whole
// program, nested units included.  The units' bytes include the slice
// that keeps the roots here, as the parse cache's entries keep them.
func weigh(tb testing.TB, srcs []string) (treeBytes, unitBytes int64) {
	before := liveHeap()
	trees := make([]*syntax.Block, len(srcs))
	for k, src := range srcs {
		trees[k] = parseRewrite(tb, src)
	}
	treeBytes = liveHeap() - before
	units := make([]*Unit, len(trees))
	for k, b := range trees {
		units[k], _ = Compile(b, nil)
	}
	unitBytes = liveHeap() - before - treeBytes
	runtime.KeepAlive(trees)
	runtime.KeepAlive(units)
	return treeBytes, unitBytes
}

// liveHeap is the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// programCorpus makes n distinct programs in four higher-order shapes;
// one in four also runs a word count through the builtin text tools.
func programCorpus(n int) []string {
	r := rand.New(rand.NewPCG(7, 20))
	word := func() string {
		const alnum = "bcdfghjkmnpqrstvwxz0123456789"
		b := make([]byte, 6)
		b[0] = alnum[r.IntN(19)]
		for k := 1; k < len(b); k++ {
			b[k] = alnum[r.IntN(len(alnum))]
		}
		return string(b)
	}
	words := func(n int) string {
		ws := make([]string, n)
		for k := range ws {
			ws[k] = word()
		}
		return strings.Join(ws, " ")
	}
	out := make([]string, n)
	for k := range out {
		var src string
		switch k % 4 {
		case 0:
			src = fmt.Sprintf("let (map = @ f l {let (acc = ) {for (x = $l) {acc = $acc <={$f $x}}; result $acc}}; "+
				"filter = @ p l {let (acc = ) {for (x = $l) {if {$p $x} {acc = $acc $x}}; result $acc}}; "+
				"fold = @ f a l {for (x = $l) {a = <={$f $a $x}}; result $a}) "+
				"{result <={$fold @ a b {result $a^.^$b} %s <={$map @ x {result %s^$x} <={$filter @ x {~ $x *%c*} %s}}}}",
				word(), word(), word()[1], words(12))
		case 1:
			src = fmt.Sprintf("local (v = %s) {let (h = $v(%d %d %d); n = $#v) {result $h^-^$n $v($n) <={result %s^$v(1)}}}",
				words(10), 1+r.IntN(10), 1+r.IntN(10), 1+r.IntN(10), word())
		case 2:
			src = fmt.Sprintf("let (cls = @ w {if {~ $w %c*} {result A^$w} {~ $w *%c} {result B} {~ $w (%s)} {result C} {result D}}; out = ) "+
				"{for (w = %s) {out = $out <={$cls $w}}; result $out}",
				word()[0], word()[5], words(2), words(10))
		case 3:
			src = fmt.Sprintf("let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) "+
				"{let (f = <={$mk %s}; g = <={$mk %s}) {result <={$f %s} <={$twice $g %s} <={$f <={$g %s}}}}",
				word(), word(), word(), word(), word())
		}
		if k/4%4 == 0 {
			src = fmt.Sprintf("echo %s | tr ' ' '\\012' | sort | uniq -c | sed 3q; %s", words(12), src)
		}
		out[k] = src
	}
	return out
}
