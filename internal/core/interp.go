package core

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"es/internal/cache"
	"es/internal/glob"
	"es/internal/syntax"
)

// PrimFunc is the signature of a $& primitive.
type PrimFunc func(i *Interp, ctx *Ctx, args List) (List, error)

// BuiltinFunc is the signature of a hermetic utility command (the
// coreutils substrate).  Builtins behave like external programs: they see
// flattened string arguments and the context's streams, and report an exit
// status.
type BuiltinFunc func(i *Interp, ctx *Ctx, args []string) int

// Interp is one es interpreter.  It is not safe for concurrent use; Fork
// produces an isolated copy for subshell semantics.
type Interp struct {
	vars     map[string]*varSlot
	prims    map[string]PrimFunc
	builtins map[string]BuiltinFunc

	dir string // virtual working directory (fork-isolated, unlike os.Chdir)

	// interactive input source for %parse, set by the REPL driver.
	Reader CommandReader

	// background job bookkeeping.
	jobs *jobTable

	// TCO can be disabled to measure the paper's "tail calls consume
	// stack space" deficiency (the E7 ablation).
	NoTailCalls bool

	// NoExternals makes command dispatch fail with a deterministic error
	// instead of executing real processes — for hermetic harnesses like
	// the differential fuzzer, where arbitrary generated input must not
	// launch programs.
	NoExternals bool

	// ExitFunc, when set, makes $&exit terminate the process like the C
	// implementation's exit(2) call.  It is deliberately not inherited
	// by forks: exit in a subshell ends only the subshell.  When nil
	// (the embedded default), $&exit raises the exit exception instead.
	ExitFunc func(status int)

	// ServerStats, when set, backs $&serverstats with the counters of the
	// esd daemon serving this interpreter's session.  Forks inherit it, so
	// pipelines and subshells inside a session report the same server.
	ServerStats func() []string

	// Alloc records the interpreter's allocation behaviour for the GC
	// experiments when Trace is enabled.
	Alloc AllocStats

	// pathCache memoizes successful $path lookups made by $&pathsearch.
	// It is per-interpreter (a fork may change $path independently) and
	// invalidated whenever path/PATH is assigned; see CacheStats.
	pathCache *cache.Map[string]

	// intr is the pending-interrupt line, shared with forks (a subshell
	// belongs to the same "process group" as its parent) but private to
	// each independently created interpreter.
	intr *atomic.Bool

	// cancel is the cooperative-cancellation slot, shared with forks the
	// same way the interrupt line is: a serving layer arms it per request
	// (SetCancel) and every command boundary in the group polls it.
	cancel *atomic.Pointer[cancelState]

	// Depth guards runaway recursion when TCO is off.
	depth    int
	maxDepth int
}

// CommandReader supplies input lines to %parse, which prints prompts and
// assembles multi-line commands itself.  ReadLine returns one line without
// its trailing newline, and io.EOF at end of input.
type CommandReader interface {
	ReadLine() (string, error)
}

// AllocStats counts value allocations, mirroring the C implementation's
// collector traffic so the gc package can replay realistic shell
// workloads.
type AllocStats struct {
	Trace    bool
	Terms    int64
	Lists    int64
	Closures int64
	Bindings int64
	StrBytes int64
	Commands int64 // command boundaries ("between two separate commands little memory is preserved")
}

func (a *AllocStats) term(n int) {
	if a.Trace {
		a.Terms += int64(n)
	}
}

func (a *AllocStats) list() {
	if a.Trace {
		a.Lists++
	}
}

func (a *AllocStats) closure() {
	if a.Trace {
		a.Closures++
	}
}

func (a *AllocStats) binding(n int) {
	if a.Trace {
		a.Bindings += int64(n)
	}
}

func (a *AllocStats) str(n int) {
	if a.Trace {
		a.StrBytes += int64(n)
	}
}

func (a *AllocStats) command() {
	if a.Trace {
		a.Commands++
	}
}

// jobTable tracks %background jobs; it is shared between an interpreter
// and its forks so wait works from subshells of the spawning shell.
type jobTable struct {
	mu   sync.Mutex
	next int
	jobs map[int]*job
}

type job struct {
	id   int
	done chan struct{}
	res  List
}

// New creates an interpreter with no variables and no primitives
// registered.  Callers normally use the public es package, which registers
// the standard primitive set and runs initial.es.
func New() *Interp {
	dir, err := os.Getwd()
	if err != nil {
		dir = "/"
	}
	return &Interp{
		vars:      make(map[string]*varSlot),
		prims:     make(map[string]PrimFunc),
		builtins:  make(map[string]BuiltinFunc),
		dir:       dir,
		jobs:      &jobTable{jobs: make(map[int]*job)},
		pathCache: cache.NewMap[string]("path", 512),
		intr:      new(atomic.Bool),
		cancel:    new(atomic.Pointer[cancelState]),
		maxDepth:  10000,
	}
}

// RegisterPrim registers a $&name primitive in the one registry every
// $&name is looked up in when it runs, literal head or hook value alike.
// Primitives cannot be redefined from the shell: "it is always possible
// to access the underlying shell service, even when its hook has been
// reassigned."
func (i *Interp) RegisterPrim(name string, fn PrimFunc) {
	i.prims[name] = fn
}

// RegisterBuiltin registers a hermetic utility command, found after fn-
// definitions but before $PATH.
func (i *Interp) RegisterBuiltin(name string, fn BuiltinFunc) {
	i.builtins[name] = fn
}

// Prim returns the registered primitive (nil if unknown).
func (i *Interp) Prim(name string) PrimFunc { return i.prims[name] }

// Builtin returns the registered builtin (nil if unknown).
func (i *Interp) Builtin(name string) BuiltinFunc { return i.builtins[name] }

// PrimNames returns the registered primitive names (unsorted).
func (i *Interp) PrimNames() []string {
	out := make([]string, 0, len(i.prims))
	for n := range i.prims {
		out = append(out, n)
	}
	return out
}

// BuiltinNames returns the registered builtin command names (unsorted),
// completing the registry enumeration triple with PrimNames and VarNames
// that static tooling (internal/analysis) resolves references against.
func (i *Interp) BuiltinNames() []string {
	out := make([]string, 0, len(i.builtins))
	for n := range i.builtins {
		out = append(out, n)
	}
	return out
}

// SetMaxDepth bounds closure-application nesting; the tail-call
// trampoline keeps properly tail-recursive functions within one frame.
func (i *Interp) SetMaxDepth(n int) { i.maxDepth = n }

// Dir returns the interpreter's working directory.
func (i *Interp) Dir() string { return i.dir }

// SetDir sets the working directory (no validation; $&cd validates).
func (i *Interp) SetDir(dir string) { i.dir = dir }

// Fork deep-copies the interpreter for subshell execution: variable
// bindings — including the lexical environments captured inside closures —
// are copied so that mutations in the child are invisible to the parent,
// matching the process-fork semantics of the C implementation.
func (i *Interp) Fork() *Interp {
	child := &Interp{
		vars:        make(map[string]*varSlot, len(i.vars)),
		prims:       i.prims,
		builtins:    i.builtins,
		dir:         i.dir,
		jobs:        i.jobs,
		NoTailCalls: i.NoTailCalls,
		NoExternals: i.NoExternals,
		maxDepth:    i.maxDepth,
		Reader:      i.Reader,
		ServerStats: i.ServerStats,
		// A fork may assign $path without the parent seeing the settor
		// run, so it starts with its own empty path cache; sharing the
		// parent's would serve answers computed against the wrong $path.
		pathCache: cache.NewMap[string]("path", 512),
		// The interrupt line IS shared: a SIGINT aimed at the shell
		// interrupts its subshells too, like a Unix process group.  So is
		// the cancel slot: a request deadline aborts the subshells and
		// background jobs the request spawned, not just its main line.
		intr:   i.intr,
		cancel: i.cancel,
	}
	memo := &forkMemo{
		bindings: make(map[*Binding]*Binding),
		closures: make(map[*Closure]*Closure),
	}
	for name, slot := range i.vars {
		if slot.lazy {
			child.vars[name] = &varSlot{raw: slot.raw, lazy: true, noexport: slot.noexport}
			continue
		}
		child.vars[name] = &varSlot{value: copyList(slot.value, memo), noexport: slot.noexport}
	}
	return child
}

// Spawn forks the interpreter and detaches the copy from the parent's
// process-group state: the child gets its own interrupt line, cancel
// slot, and background-job table.  Fork models a subshell; Spawn models a
// fresh top-level interpreter stamped out of a warm template — how esd
// starts each session — so interrupting or deadlining one session can
// never abort another, and `wait` in one session cannot reap another's
// jobs.
func (i *Interp) Spawn() *Interp {
	child := i.Fork()
	child.intr = new(atomic.Bool)
	child.cancel = new(atomic.Pointer[cancelState])
	child.jobs = &jobTable{jobs: make(map[int]*job)}
	return child
}

// forkMemo preserves object identity — including cycles, which es values
// can form ("the ability to create true recursive structures") — across
// the deep copy.
type forkMemo struct {
	bindings map[*Binding]*Binding
	closures map[*Closure]*Closure
}

func copyList(l List, memo *forkMemo) List {
	needs := false
	for _, t := range l {
		if t.Closure != nil {
			needs = true
			break
		}
	}
	if !needs {
		return l
	}
	out := make(List, len(l))
	for idx, t := range l {
		if t.Closure != nil {
			t.Closure = copyClosure(t.Closure, memo)
		}
		out[idx] = t
	}
	return out
}

func copyClosure(c *Closure, memo *forkMemo) *Closure {
	if c.Env == nil {
		return c // nothing mutable is shared
	}
	if dup, ok := memo.closures[c]; ok {
		return dup
	}
	dup := &Closure{Params: c.Params, HasParams: c.HasParams, Body: c.Body}
	memo.closures[c] = dup
	dup.Env = copyBindings(c.Env, memo)
	return dup
}

func copyBindings(b *Binding, memo *forkMemo) *Binding {
	if b == nil {
		return nil
	}
	if dup, ok := memo.bindings[b]; ok {
		return dup
	}
	dup := &Binding{Name: b.Name}
	memo.bindings[b] = dup
	dup.Value = copyList(b.Value, memo)
	dup.Next = copyBindings(b.Next, memo)
	return dup
}

// parseCache memoizes ParseCommand results by source text.  The rewritten
// AST is immutable — Rewrite builds fresh nodes and evaluation only reads
// them — so one Block is safely shared by every evaluation and every
// interpreter in the process.  Repeated eval/%parse of the same source
// (and every startup's initial.es) skips the lexer entirely.
var parseCache = cache.NewMap[*syntax.Block]("parse", 512)

// maxCachedSrc bounds the source size the parse cache will retain; huge
// one-off scripts would otherwise pin memory for no repeat benefit.
const maxCachedSrc = 1 << 14

// ParseCommand parses source into the core representation ready for
// evaluation.  Successful parses of modest sources are memoized.
func ParseCommand(src string) (*syntax.Block, error) {
	cacheable := len(src) <= maxCachedSrc
	if cacheable {
		if b, ok := parseCache.Get(src); ok {
			return b, nil
		}
	}
	b, err := syntax.Parse(src)
	if err != nil {
		return nil, err
	}
	rw := syntax.Rewrite(b).(*syntax.Block)
	if cacheable {
		parseCache.Put(src, rw)
	}
	return rw, nil
}

// FlushParseCache drops every memoized parse (the $&recache escape hatch
// and the cold-start lever for benchmarks).
func FlushParseCache() { parseCache.Flush() }

// PathCache exposes the interpreter's pathsearch memo so the pathsearch
// primitive (package prim) can consult it and tests can observe it.
func (i *Interp) PathCache() *cache.Map[string] { return i.pathCache }

// FlushCaches drops this interpreter's path cache and the process-wide
// parse, decode, and glob caches: the native analogue of Figure 2's
// recache function, bound to $&recache.
func (i *Interp) FlushCaches() {
	i.pathCache.Flush()
	FlushParseCache()
	FlushCompileCache()
	FlushDecodeCache()
	glob.FlushCache()
}

// CacheStats snapshots every native cache visible to this interpreter, in
// a fixed order (path, parse, compile, decode, glob).  It is the
// AllocStats-style observability surface for the dispatch caches, reported
// by $&cachestats and the es -cachestats flag.
func (i *Interp) CacheStats() []cache.Stats {
	return []cache.Stats{
		i.pathCache.Stats(),
		parseCache.Stats(),
		compileCache.Stats(),
		decodeCache.Stats(),
		glob.CacheStats(),
	}
}

// RunString parses and evaluates src, returning its rich result.
func (i *Interp) RunString(ctx *Ctx, src string) (List, error) {
	b, err := ParseCommand(src)
	if err != nil {
		return nil, ErrorExc(err.Error())
	}
	return i.EvalBlock(ctx.NonTail(), b, nil)
}

// RunFile sources the script at path with $* bound to args.
func (i *Interp) RunFile(ctx *Ctx, path string, args List) (List, error) {
	if !filepath.IsAbs(path) {
		path = filepath.Join(i.dir, path)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, ErrorExc(err.Error())
	}
	b, perr := ParseCommand(string(src))
	if perr != nil {
		return nil, ErrorExc(path + ": " + perr.Error())
	}
	// $0 names the script for its dynamic extent, $* holds the args.
	cl := &Closure{Body: b, Env: &Binding{Name: "0", Value: StrList(path)}}
	return i.Apply(ctx.NonTail(), cl, args)
}
