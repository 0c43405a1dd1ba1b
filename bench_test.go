package es

// The benchmark harness: one benchmark (or benchmark pair) per experiment
// in EXPERIMENTS.md, regenerating every figure and quantified claim of
// the paper's evaluation.  Run with:
//
//	go test -bench=. -benchmem .
//
// E1 — Figure 1: the %pipe profiling spoof (vs. the unspoofed pipeline).
// E2 — Figure 2: %pathsearch caching, cold vs. cached lookups.
// E3 — Figure 3: interactive-loop turns.
// E4 — GC: collector overhead replaying the live interpreter's
//      allocation profile (the "roughly 4%" claim).
// E5 — environment functions: startup with state in the environment vs.
//      sourcing an rc file.
// E7 — future work implemented: tail-call elimination ablation.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"es/internal/analysis"
	"es/internal/core"
	"es/internal/gc"
	"es/internal/image"
	"es/internal/server"
)

func benchShell(b *testing.B) *Shell {
	b.Helper()
	sh, err := New(Options{Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	return sh
}

func benchRun(b *testing.B, sh *Shell, src string) List {
	b.Helper()
	res, err := sh.Run(src)
	if err != nil {
		b.Fatalf("%s: %v", src, err)
	}
	return res
}

// ---- E1: Figure 1 ----

// BenchmarkFig1PipeProfile runs the paper's word-frequency pipeline with
// the %pipe timing spoof installed.
func BenchmarkFig1PipeProfile(b *testing.B) {
	sh := benchShell(b)
	benchRun(b, sh, pipeSpoof)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, wordFreqPipeline)
	}
}

// BenchmarkFig1PipeBaseline is the same pipeline without the spoof; the
// difference is the cost of profiling through the hook mechanism.
func BenchmarkFig1PipeBaseline(b *testing.B) {
	sh := benchShell(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, wordFreqPipeline)
	}
}

// fig1Corpus is text in the shape of the corpus esbench's shell_exec
// workload pipes through Figure 1: 1,720 six-letter words over a
// 300-word vocabulary, seven of them frequent, shuffled and punctuated
// (about 13.7 KB), drawn from a fixed seed.  testdata/paper.txt, at
// 1,406 bytes, is too small to show how sort's cost grows with its input.
func fig1Corpus() string {
	r := rand.New(rand.NewPCG(1993, 1))
	const letters = "bcdfghjkmnpqrstvwxz"
	const alnum = letters + "0123456789"
	seen := make(map[string]bool)
	var vocab []string
	for len(vocab) < 300 {
		w := []byte{letters[r.IntN(len(letters))], 0, 0, 0, 0, 0}
		for k := 1; k < len(w); k++ {
			w[k] = alnum[r.IntN(len(alnum))]
		}
		if !seen[string(w)] {
			seen[string(w)] = true
			vocab = append(vocab, string(w))
		}
	}
	var words []string
	for k, w := range vocab {
		n := 1 + k%8
		if k < 7 {
			n = 70 - 4*k
		}
		for ; n > 0; n-- {
			words = append(words, w)
		}
	}
	r.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
	seps := []string{" ", ", ", " - ", "; ", "  "}
	var text strings.Builder
	for k, w := range words {
		text.WriteString(w)
		if k%12 == 11 || k == len(words)-1 {
			text.WriteString(".\n")
		} else {
			text.WriteString(seps[r.IntN(len(seps))])
		}
	}
	return text.String()
}

// BenchmarkFig1PipeCorpus runs Figure 1's pipeline over fig1Corpus on
// standard input, as each shell_exec request runs it over its corpus
// file.
func BenchmarkFig1PipeCorpus(b *testing.B) {
	corpus := fig1Corpus()
	in := strings.NewReader(corpus)
	sh, err := New(Options{Stdin: in, Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	const src = `cat | tr -cs a-zA-Z0-9 '\012' | sort | uniq -c | sort -nr | sed 6q`
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		in.Reset(corpus)
		benchRun(b, sh, src)
	}
}

// ---- E2: Figure 2 ----

// pathRootLen is the length of the directory nativePathShell builds
// $path under.  The length is fixed, so the paths a lookup resolves, and
// the bytes a run allocates for them, do not follow the length of the
// host's temporary directory or of b.TempDir's random suffix.
const pathRootLen = 160

// nativePathShell builds a shell whose $path is ndirs directories with
// benchtool in the last one — native dispatch only, no es-level spoof.
func nativePathShell(b *testing.B, ndirs int) *Shell {
	b.Helper()
	sh := benchShell(b)
	tmp := b.TempDir()
	pad := pathRootLen - len(tmp) - 1
	if pad < 1 {
		b.Fatalf("temporary directory %s is too long to pad to %d bytes: set TMPDIR to a shorter one", tmp, pathRootLen)
	}
	root := filepath.Join(tmp, strings.Repeat("p", pad))
	dirs := make([]string, ndirs)
	for k := range dirs {
		dirs[k] = filepath.Join(root, fmt.Sprintf("bin%03d", k))
		if err := os.MkdirAll(dirs[k], 0o755); err != nil {
			b.Fatal(err)
		}
	}
	tool := filepath.Join(dirs[ndirs-1], "benchtool")
	if err := os.WriteFile(tool, []byte("#!/bin/true\n"), 0o755); err != nil {
		b.Fatal(err)
	}
	if err := sh.Set("path", dirs...); err != nil {
		b.Fatal(err)
	}
	return sh
}

func pathBenchShell(b *testing.B, ndirs int) *Shell {
	b.Helper()
	sh := nativePathShell(b, ndirs)
	benchRun(b, sh, pathCacheSpoof)
	return sh
}

// BenchmarkFig2PathSearchCold measures lookups that walk all of $path
// (the cache is dropped each iteration, as recache does).
func BenchmarkFig2PathSearchCold(b *testing.B) {
	sh := pathBenchShell(b, 32)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "whatis benchtool >[1=]")
		benchRun(b, sh, "recache")
	}
}

// BenchmarkFig2PathSearchCached measures lookups answered by the fn-
// variable the Figure 2 spoof installed.
func BenchmarkFig2PathSearchCached(b *testing.B) {
	sh := pathBenchShell(b, 32)
	benchRun(b, sh, "whatis benchtool >[1=]") // warm the cache
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "whatis benchtool >[1=]")
	}
}

// ---- native dispatch caches ----

// BenchmarkNativePathSearchCold measures uncached native dispatch: every
// lookup walks all of $path because $&recache drops the memo each round.
func BenchmarkNativePathSearchCold(b *testing.B) {
	sh := nativePathShell(b, 32)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "whatis benchtool >[1=]")
		b.StopTimer()
		benchRun(b, sh, "recache")
		b.StartTimer()
	}
}

// BenchmarkNativePathSearchCached measures the same lookup served by the
// native pathsearch memo inside $&pathsearch — the Figure 2 win without
// any es-level spoof.
func BenchmarkNativePathSearchCached(b *testing.B) {
	sh := nativePathShell(b, 32)
	benchRun(b, sh, "whatis benchtool >[1=]") // warm the native cache
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "whatis benchtool >[1=]")
	}
}

// BenchmarkParseCold measures parsing with the memo flushed each
// iteration; BenchmarkParse (below) now reports the cached cost.
func BenchmarkParseCold(b *testing.B) {
	src := "fn apply cmd args {for (i = $args) $cmd $i}; a | b > f && c"
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		core.FlushParseCache()
		if _, err := core.ParseCommand(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobMatchLoop exercises the compiled-glob cache the way shell
// loops do: one pattern matched against many subjects, repeatedly.
func BenchmarkGlobMatchLoop(b *testing.B) {
	sh := benchShell(b)
	benchRun(b, sh, "files = a.c b.c c.h d.c e.go f.c g.h h.c")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "for (f = $files) ~ $f *.[ch]")
	}
}

// ---- E3: Figure 3 ----

type benchReader struct {
	line string
	n    int
}

func (r *benchReader) ReadLine() (string, error) {
	if r.n <= 0 {
		return "", io.EOF
	}
	r.n--
	return r.line, nil
}

// BenchmarkFig3ReplTurn measures one full interactive-loop turn — prompt,
// %parse, evaluate — through the es-coded Figure 3 loop.
func BenchmarkFig3ReplTurn(b *testing.B) {
	sh := benchShell(b)
	b.ResetTimer()
	b.StopTimer()
	// Feed b.N commands through one Interactive session.
	r := &benchReader{line: "x = <>{%flatten / a b}", n: b.N}
	b.StartTimer()
	if _, err := sh.Interactive(r); err != nil {
		b.Fatal(err)
	}
}

// ---- E4: GC ----

// allocWorkload is the shell workload E4's allocation profile is
// derived from: loops, lists, concatenation, a let, a substitution, a
// match, and Figure 1's pipeline.
const allocWorkload = `
for (k = 1 2 3 4 5 6 7 8 9 10) {
	x = one two three $k
	y = $x $x
	let (z = $y^suffix) {
		s = <>{%flatten : $z}
	}
	if {~ $k 5} {marker = reached $k}
}
` + wordFreqPipeline

// tracedAllocs runs allocWorkload in a fresh shell with allocation
// tracing on, and returns the counts and the wall time of the run.
func tracedAllocs(tb testing.TB) (core.AllocStats, time.Duration) {
	tb.Helper()
	sh, err := New(Options{Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		tb.Fatal(err)
	}
	sh.Interp().Alloc.Trace = true
	start := time.Now()
	if _, err := sh.Run(allocWorkload); err != nil {
		tb.Fatal(err)
	}
	return sh.Interp().Alloc, time.Since(start)
}

// shellProfile derives a per-command allocation profile from a real,
// instrumented interpreter run (the paper's observations made concrete).
func shellProfile(b *testing.B) (gc.CommandProfile, time.Duration) {
	b.Helper()
	a, wall := tracedAllocs(b)
	cmds := a.Commands
	if cmds == 0 {
		cmds = 1
	}
	p := gc.CommandProfile{
		Terms:    int(a.Terms / cmds),
		Conses:   int(a.Lists / cmds),
		Closures: int(a.Closures/cmds) + 1,
		Bindings: int(a.Bindings/cmds) + 1,
		Retained: 2,
		StrLen:   12,
		EnvSize:  64,
	}
	return p, wall / time.Duration(cmds)
}

// TestAllocStatsExact pins the counts E4 replays.  They model the C
// shell's collector traffic, so a change to how the evaluator allocates
// in Go must leave them alone.
func TestAllocStatsExact(t *testing.T) {
	got, _ := tracedAllocs(t)
	got.Trace = false
	want := core.AllocStats{Terms: 379, Lists: 73, Closures: 26, Bindings: 31, StrBytes: 1767, Commands: 73}
	if got != want {
		t.Errorf("allocation counts moved:\n got: %+v\nwant: %+v", got, want)
	}
}

// BenchmarkGCReplay measures raw collector throughput on the live-derived
// profile; the reported gc-frac metric is collection time as a fraction
// of the real shell's per-command runtime — the paper's 4% measurement.
func BenchmarkGCReplay(b *testing.B) {
	profile, perCmd := shellProfile(b)
	h := gc.NewHeap(4096)
	b.ResetTimer()
	stats := gc.Replay(h, profile, b.N)
	b.StopTimer()
	if b.N > 0 {
		gcPerCmd := time.Duration(int64(stats.GCTime) / int64(b.N))
		b.ReportMetric(float64(gcPerCmd)/float64(perCmd)*100, "gc-frac-%")
		b.ReportMetric(float64(stats.Collections)/float64(b.N)*1000, "collections/1000cmd")
	}
}

// BenchmarkGCCollect measures a single collection over a live set of the
// size the replayed shell retains.
func BenchmarkGCCollect(b *testing.B) {
	h := gc.NewHeap(8192)
	env := gc.Nil
	h.AddRoot(&env)
	for k := 0; k < 512; k++ {
		v := h.String("value-string")
		h.AddRoot(&v)
		env = h.Binding("var", v, env)
		h.RemoveRoot(&v)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		h.Collect()
	}
	b.ReportMetric(float64(h.Stats().LiveAfterGC), "live-objects")
}

// BenchmarkGCDebugMode shows the cost of the collect-at-every-allocation
// debugging collector.
func BenchmarkGCDebugMode(b *testing.B) {
	h := gc.NewHeap(512)
	h.Debug = true
	keep := gc.Nil
	h.AddRoot(&keep)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		keep = h.Cons(h.String("x"), gc.Nil)
	}
}

// ---- E5: startup ----

// startupDefs is shell state a user might accumulate: 24 function
// definitions with captured bindings.
func startupDefs() string {
	var sb strings.Builder
	for k := 0; k < 24; k++ {
		fmt.Fprintf(&sb, "let (v%d = val%d) fn helper%d a {echo $v%d $a}\n", k, k, k, k)
	}
	return sb.String()
}

// BenchmarkStartupEnv starts a shell whose state arrives through the
// environment, as es does: no configuration file is read.
func BenchmarkStartupEnv(b *testing.B) {
	parent := benchShell(b)
	benchRun(b, parent, startupDefs())
	env := parent.Interp().ExportEnv()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sh, err := New(Options{Environ: env})
		if err != nil {
			b.Fatal(err)
		}
		_ = sh
	}
}

// BenchmarkStartupRcFile starts a shell the traditional way: reading and
// evaluating an rc file with the same definitions.
func BenchmarkStartupRcFile(b *testing.B) {
	rc := filepath.Join(b.TempDir(), "esrc")
	if err := os.WriteFile(rc, []byte(startupDefs()), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sh, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sh.RunFile(rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartupBare is the floor: initial.es only.
func BenchmarkStartupBare(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := New(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: tail calls ----

const drainDef = `
fn drain head tail {
	if {~ $#head 0} {result done} {drain $tail}
}`

func tcoShell(b *testing.B, disable bool, n int) *Shell {
	b.Helper()
	sh, err := New(Options{Stdout: io.Discard, Stderr: io.Discard, NoTailCalls: disable})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]string, n)
	for k := range vals {
		vals[k] = "x"
	}
	sh.Interp().SetVarRaw("big", core.StrList(vals...))
	benchRun(b, sh, drainDef)
	return sh
}

// BenchmarkTailCallOpt drains a 400-element list by tail recursion with
// the trampoline on (constant evaluation stack).
func BenchmarkTailCallOpt(b *testing.B) {
	sh := tcoShell(b, false, 400)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "drain $big")
	}
}

// BenchmarkTailCallNaive is the ablation: the same recursion with nested
// Go frames, the C implementation's behaviour the paper calls an
// "implementation deficiency which we hope to remedy".
func BenchmarkTailCallNaive(b *testing.B) {
	sh := tcoShell(b, true, 400)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "drain $big")
	}
}

// ---- microbenchmarks ----

func BenchmarkParse(b *testing.B) {
	src := "fn apply cmd args {for (i = $args) $cmd $i}; a | b > f && c"
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := core.ParseCommand(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalSimple(b *testing.B) {
	sh := benchShell(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "result a b c")
	}
}

func BenchmarkApplyFunction(b *testing.B) {
	sh := benchShell(b)
	benchRun(b, sh, "fn f a b {result $b $a}")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "f one two")
	}
}

func BenchmarkPipeBuiltins(b *testing.B) {
	sh := benchShell(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, "echo data | cat")
	}
}

// BenchmarkPipeWordCount runs the shape of the builtin pipeline in
// esbench's rpc_script workload: twelve words counted by four builtins.
func BenchmarkPipeWordCount(b *testing.B) {
	sh := benchShell(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, `echo pear fig kiwi pear lime fig pear date kiwi pear lime fig | tr ' ' '\012' | sort | uniq -c | sed 3q`)
	}
}

func BenchmarkEnvExport(b *testing.B) {
	sh := benchShell(b)
	benchRun(b, sh, startupDefs())
	i := sh.Interp()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if len(i.ExportEnv()) == 0 {
			b.Fatal("empty env")
		}
	}
}

func BenchmarkForkClone(b *testing.B) {
	sh := benchShell(b)
	benchRun(b, sh, startupDefs())
	i := sh.Interp()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i.Fork() == nil {
			b.Fatal("fork failed")
		}
	}
}

// ---- the bytecode engine: steady-state evaluation ----

// benchEngine times steady-state evaluation of src: parse and compile
// caches are warmed before timing, so each iteration is a parse-cache
// hit that runs the shared compiled unit.
func benchEngine(b *testing.B, setup, src string) {
	b.Helper()
	sh, err := New(Options{Stdout: io.Discard, Stderr: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	if setup != "" {
		benchRun(b, sh, setup)
	}
	benchRun(b, sh, src)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		benchRun(b, sh, src)
	}
}

// BenchmarkEngineEvalSimple: the smallest command — primitive dispatch
// plus static-word materialization.
func BenchmarkEngineEvalSimple(b *testing.B) {
	benchEngine(b, "", "result a b c")
}

// BenchmarkEngineEvalCall: function application through fn- lookup and
// the trampoline.
func BenchmarkEngineEvalCall(b *testing.B) {
	benchEngine(b, "fn f a b {result $b $a}", "f one two")
}

// BenchmarkEngineEvalWords: word evaluation — splicing, subscripts,
// concatenation, counting — the dynamic-word path.
func BenchmarkEngineEvalWords(b *testing.B) {
	benchEngine(b,
		"x = alpha beta gamma delta",
		"y = $x $x(2) pre^$x(1)^post $#x; result $#y")
}

// BenchmarkEngineEvalLoop: a match loop over a list — pre-compiled
// static patterns against per-iteration bindings.
func BenchmarkEngineEvalLoop(b *testing.B) {
	benchEngine(b,
		"files = a.c b.c c.h d.c e.go f.c g.h h.c",
		"for (f = $files) ~ $f *.[ch]")
}

// BenchmarkEngineEvalScope: let/local dynamic extents and settor-free
// assignment.
func BenchmarkEngineEvalScope(b *testing.B) {
	benchEngine(b, "",
		"let (a = 1) {local (b = 2) {c = $a $b; result $c}}")
}

// scriptFamilies holds one fixed program for each family of esbench's
// rpc_script workload, and its builtin word-count pipeline, with the
// value each returns.
var scriptFamilies = []struct{ name, src, want string }{
	{"map-filter-fold",
		"let (map = @ f l {let (acc = ) {for (x = $l) {acc = $acc <={$f $x}}; result $acc}}; " +
			"filter = @ p l {let (acc = ) {for (x = $l) {if {$p $x} {acc = $acc $x}}; result $acc}}; " +
			"fold = @ f a l {for (x = $l) {a = <={$f $a $x}}; result $a}) " +
			"{result <={$fold @ a b {result $a^.^$b} wxbcdf <={$map @ x {result tv^$x} <={$filter @ x {~ $x *z*} " +
			"bcdfgh bzdfgh cdfghj dfghjz fghjmn ghjmnp hjzmnp jmnpqr mnpqrs zpqrst pqrstv qrstvw}}}}",
		"wxbcdf.tvbzdfgh.tvdfghjz.tvhjzmnp.tvzpqrst"},
	{"subscripts",
		"local (v = bcdfgh cdfghj dfghjk fghjkm ghjkmn hjkmnp jkmnpq kmnpqr mnpqrs npqrst) " +
			"{let (h = $v(3 7 1); n = $#v) {result $h^-^$n $v($n) <={result tv^$v(1)}}}",
		"dfghjk-10 jkmnpq-10 bcdfgh-10 npqrst tvbcdfgh"},
	{"match",
		"let (cls = @ w {if {~ $w b*} {result A^$w} {~ $w *7} {result B} {~ $w (fghjkm kmnpqr)} {result C} {result D}}; out = ) " +
			"{for (w = bcdfgh cdfgh7 dfghjk fghjkm ghjkmn bjkmnp jkmnpq kmnpqr mnpqr7 npqrst) {out = $out <={$cls $w}}; result $out}",
		"Abcdfgh B D C D Abjkmnp D C B D"},
	{"curry",
		"let (mk = @ p {result @ x {result $p^$x}}; twice = @ f x {$f <={$f $x}}) " +
			"{let (f = <={$mk bc}; g = <={$mk cd}) {result <={$f df} <={$twice $g fg} <={$f <={$g gh}}}}",
		"bcdf cdcdfg bccdgh"},
	{"pipeline",
		`echo pear fig kiwi pear lime fig pear date kiwi pear lime fig | tr ' ' '\012' | sort | uniq -c | sed 3q`,
		"0"},
}

// BenchmarkScriptFamilies runs each program of scriptFamilies on a warm
// session spawned from a started shell, as esd runs a request whose parse
// is cached, and reports its allocations per program.
func BenchmarkScriptFamilies(b *testing.B) {
	tmpl := benchShell(b).Interp()
	for _, f := range scriptFamilies {
		b.Run(f.name, func(b *testing.B) {
			s := tmpl.Spawn()
			ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), io.Discard, io.Discard)}
			res, err := s.RunString(ctx, f.src)
			if err != nil || res.Flatten(" ") != f.want {
				b.Fatalf("%s = %v, %v; want %s", f.name, res, err, f.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := s.RunString(ctx, f.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- serving layer: esd over a unix socket ----

// benchServer starts an in-process evaluation server backed by a warm
// template, exactly as cmd/esd wires it, and returns its unix socket —
// or, given a tcp address to listen on as well, its tcp:// target.
func benchServer(b *testing.B, tcp string) string {
	b.Helper()
	template := benchShell(b)
	sock := filepath.Join(b.TempDir(), "esd.sock")
	srv, err := server.New(server.Config{
		Socket: sock,
		TCP:    tcp,
		NewSession: func() (*core.Interp, error) {
			return template.Interp().Spawn(), nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() {
		if err := srv.Drain(10 * time.Second); err != nil {
			b.Error(err)
		}
	})
	if tcp != "" {
		return "tcp://" + srv.TCPAddr()
	}
	return sock
}

// benchDial connects to a Dial target; the connection closes with the
// benchmark.
func benchDial(b *testing.B, target string) *server.Client {
	c, err := server.Dial(target, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Conn.Close() })
	return c
}

func benchServerEval(b *testing.B, c *server.Client, n int64) {
	f, err := c.RoundTrip(&server.Frame{Type: "eval", ID: n, Src: "result 0"})
	if err != nil {
		b.Fatal(err)
	}
	if f.Type != "result" || !f.True {
		b.Fatalf("reply = %+v", f)
	}
}

// BenchmarkServerEval measures one request round-trip through the full
// serving stack — frame codec, mailbox, semaphore, interpreter, metrics —
// for a single client and for concurrent clients (one session each).
func BenchmarkServerEval(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		c := benchDial(b, benchServer(b, ""))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			benchServerEval(b, c, int64(n))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		sock := benchServer(b, "")
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			c, err := server.Dial(sock, nil, 1)
			if err != nil {
				b.Error(err)
				return
			}
			defer c.Conn.Close()
			var n int64
			for pb.Next() {
				n++
				benchServerEval(b, c, n)
			}
		})
	})
}

// BenchmarkServerEvalTCP is the round-trip over the TCP listener, serial
// (one request in flight, paying a network RTT per eval) against
// pipelined (a hello-negotiated window keeps the connection full, so the
// RTT is amortized across the window).
func BenchmarkServerEvalTCP(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		c := benchDial(b, benchServer(b, "127.0.0.1:0"))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			benchServerEval(b, c, int64(n))
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		c := benchDial(b, benchServer(b, "127.0.0.1:0"))
		if f, err := c.Hello(16, ""); err != nil || f.Type != "hello" || f.Window < 2 {
			b.Fatalf("hello = %+v, %v", f, err)
		}
		b.ResetTimer()
		// The writer floods evals; the server's window plus TCP
		// backpressure bound how far it runs ahead of the reads.
		go func() {
			for n := 0; n < b.N; n++ {
				if err := c.Write(&server.Frame{Type: "eval", ID: int64(n), Src: "result 0"}); err != nil {
					return
				}
			}
		}()
		for n := 0; n < b.N; n++ {
			f, err := c.Read()
			if err != nil {
				b.Fatal(err)
			}
			if f.Type != "result" || !f.True {
				b.Fatalf("reply = %+v", f)
			}
		}
	})
}

// BenchmarkServerSessionSpawn is the cost every new connection pays on
// its own goroutine: stamping one session interpreter out of the
// initialized template.
func BenchmarkServerSessionSpawn(b *testing.B) {
	template := benchShell(b)
	i := template.Interp()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i.Spawn() == nil {
			b.Fatal("spawn failed")
		}
	}
}

// spawnResidentSessions is how many sessions BenchmarkSpawnResident
// holds live at once.
const spawnResidentSessions = 256

// BenchmarkSpawnResident is what each live esd session keeps resident:
// the heap growth, over a forced collection on either side, while
// spawnResidentSessions sessions stamped out of one template are held at
// once, reported as bytes/session.
func BenchmarkSpawnResident(b *testing.B) {
	i := benchShell(b).Interp()
	i.Spawn() // folds the template's startup writes, once, as esd's first session does
	kept := make([]*core.Interp, spawnResidentSessions)
	var before, after runtime.MemStats
	var grown int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		for k := range kept {
			kept[k] = i.Spawn()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown += int64(after.HeapAlloc) - int64(before.HeapAlloc)
		clear(kept)
	}
	b.ReportMetric(float64(grown)/float64(b.N*spawnResidentSessions), "bytes/session")
}

// benchImage captures a session image carrying a realistic amount of
// user state, for the pre-baked-template benchmarks.
func benchImage(b *testing.B) *image.Image {
	loaded := benchShell(b)
	src := "fn work x {result $x $x}; fn-%pathsearch = @ n {result /spoof/$n}\n"
	for k := 0; k < 16; k++ {
		src += fmt.Sprintf("state%d = one two three four\n", k)
	}
	if _, err := loaded.Run(src); err != nil {
		b.Fatal(err)
	}
	return image.Capture(loaded.Interp(), nil)
}

// BenchmarkServerSessionFromImage is the pre-baked template: the image is
// restored once onto a template and sessions are stamped out with Spawn.
// The point of pre-baking is that this tracks BenchmarkServerSessionSpawn
// rather than BenchmarkServerSessionRestore — the restore cost is paid
// once, not per session.
func BenchmarkServerSessionFromImage(b *testing.B) {
	template := benchShell(b)
	newSession := server.NewSessionFromImage(template.Interp(), benchImage(b))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s, err := newSession()
		if err != nil || s == nil {
			b.Fatal("session from image failed")
		}
	}
}

// BenchmarkServerSessionRestore is the alternative pre-baking replaces:
// restoring the image onto every session individually.
func BenchmarkServerSessionRestore(b *testing.B) {
	template := benchShell(b)
	img := benchImage(b)
	i := template.Interp()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s := i.Spawn()
		img.Restore(s)
	}
}

// BenchmarkSessionImage is one session of esbench's session_state
// workload without the wire: a session spawned from the template
// decodes the image the previous session captured, restores it, runs
// one step, and captures and encodes the image the next session
// restores.  The state is the workload's: 16 closures made by let, 16
// variables of six words, and the step function.  Two step requests
// alternate, so every parse is cached and every image is one size.
func BenchmarkSessionImage(b *testing.B) {
	tmpl := benchShell(b).Interp()
	var src strings.Builder
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&src, "let (p = p%d; q = q%d) fn f%d x {result $p^$x^$q}\n", k, k, k)
		fmt.Fprintf(&src, "v%d = bcdfgh cdfghj dfghjk fghjkm ghjkmn hjkmnp\n", k)
	}
	src.WriteString("fn step new f a {let (old = $gen) {gen = $new; result $old <={$f $a}}}\ngen = g0\n")
	ctx := &core.Ctx{IO: core.NewIOTable(strings.NewReader(""), io.Discard, io.Discard)}
	first := tmpl.Spawn()
	if _, err := first.RunString(ctx, src.String()); err != nil {
		b.Fatal(err)
	}
	data := image.Capture(first, nil).Encode()
	steps := []string{"step g1 f3 $v5(2)", "step g0 f11 $v9(4)"}
	session := func(n int) {
		img, err := image.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		s := tmpl.Spawn()
		img.Restore(s)
		if _, err := s.RunString(ctx, steps[n%2]); err != nil {
			b.Fatal(err)
		}
		data = image.Capture(s, nil).Encode()
	}
	session(0)
	session(1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		session(n)
	}
}

// ---- static analysis: the escheck pass ----

// BenchmarkAnalyze measures one full analysis pass — parse, reference
// and hook resolution, structure lint, effect summary — over a
// representative script, with the registry environment prebuilt the way
// every production surface (escheck, esd -vet, $&analyze) holds it.
// Analyze parses through the parse cache, so the loop flushes it to time
// the parse too.
func BenchmarkAnalyze(b *testing.B) {
	sh := benchShell(b)
	env := analysis.EnvFromInterp(sh.Interp())
	src := `
fn count-matches pat files {
	let (n = 0) {
		for (f = $files) {
			if {~ $f $pat} {n = <>{%count $n $n}}
		}
		result $n
	}
}
fn %pathsearch name {
	if {~ $name benchtool} {result /opt/bin/benchtool} {$&pathsearch $name}
}
files = a.c b.c c.h d.go
matches = <>{count-matches *.[ch] $files}
echo found $matches | wc
`
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		core.FlushParseCache()
		res := analysis.Analyze(src, analysis.Options{Env: env})
		if res.Errors() != 0 {
			b.Fatalf("unexpected errors: %+v", res.Diags)
		}
	}
}

var _ = bytes.MinRead
