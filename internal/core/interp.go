package core

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"es/internal/cache"
	"es/internal/compile"
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

// Interp is one es interpreter.  It is not safe for concurrent use,
// except that Fork and Spawn may run at once on several goroutines while
// nothing else uses it (esd spawns every session from one template).
// Fork produces an isolated copy for subshell semantics.
type Interp struct {
	// The global variables: a frozen base shared with forks under a
	// private overlay, dirty once the overlay holds a write the base
	// lacks (see vars.go).  forkMu orders concurrent Forks' folds.
	base   *frozenVars
	over   map[string]*varSlot
	dirty  bool
	forkMu sync.Mutex

	// intrSeen is the count of the group's interrupts (sig.intr) this
	// interpreter has raised or dropped; it fills the hole after forkMu.
	intrSeen uint32

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
	// It is per-interpreter (a fork may change $path independently),
	// made on first use and invalidated whenever path/PATH is assigned;
	// see CacheStats.
	pathCache *cache.Map[string]

	// sig holds the interrupt count and the cancel slot, shared with forks
	// (a subshell belongs to the same "process group" as its parent) but
	// private to each independently created interpreter.
	sig *signals

	// raised is the cancel token this interpreter has raised.  A plain
	// field: an interpreter runs on one goroutine.
	raised *cancelState

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
// and its forks so wait works from subshells of the spawning shell.  The
// first job makes the map and the condition variable, which each job
// broadcasts under mu when it finishes.
type jobTable struct {
	mu       sync.Mutex
	finished *sync.Cond
	next     int
	jobs     map[int]*job
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
		base:     new(frozenVars),
		prims:    make(map[string]PrimFunc),
		builtins: make(map[string]BuiltinFunc),
		dir:      dir,
		jobs:     new(jobTable),
		sig:      new(signals),
		maxDepth: 10000,
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

// Fork makes a subshell of the interpreter, isolated as a fork(2)ed C
// es process is: the child shares the parent's frozen base of global
// variables (folding the parent's overlay into a new base first when it
// has written since its last fork) and writes only a private overlay, so
// neither side ever sees the other's assignments.  Closures with
// captured bindings are the one mutable state values reach; the child
// gets its own copies of the ones the globals hold, preserving sharing
// and cycles among them.
func (i *Interp) Fork() *Interp {
	child, _, _ := i.ForkCmd(Term{}, nil)
	return child
}

// ForkCmd forks the interpreter to run cmd with args, copying both
// through the memo that copies the child's globals, so the subshell's
// own command cannot assign a lexical binding the parent still sees:
// in let (x = 1) {{x = 2} | cat}, the pipeline element gets its own x.
func (i *Interp) ForkCmd(cmd Term, args List) (*Interp, Term, List) {
	i.forkMu.Lock()
	defer i.forkMu.Unlock()
	i.fold()
	child := &Interp{
		base:        i.base,
		prims:       i.prims,
		builtins:    i.builtins,
		dir:         i.dir,
		jobs:        i.jobs,
		NoTailCalls: i.NoTailCalls,
		NoExternals: i.NoExternals,
		maxDepth:    i.maxDepth,
		Reader:      i.Reader,
		ServerStats: i.ServerStats,
		// The interrupt line IS shared: a SIGINT aimed at the shell
		// interrupts its subshells too, like a Unix process group.  So is
		// the cancel slot: a request deadline aborts the subshells and
		// background jobs the request spawned, not just its main line.
		// A subshell started after the parent raised an interrupt or the
		// token (from the handler that caught it) is not aborted by it
		// again.
		sig:      i.sig,
		raised:   i.raised,
		intrSeen: i.intrSeen,
	}
	var memo forkMemo
	if len(i.base.captured) > 0 {
		child.over = make(map[string]*varSlot, len(i.base.captured))
		for _, name := range i.base.captured {
			// A parent with nothing to fold may still hold its own
			// copies of these, from its own fork: those are the values.
			s := i.slot(name)
			child.over[name] = &varSlot{value: copyList(s.value, &memo), noexport: s.noexport}
		}
	}
	if cmd.Closure != nil {
		cmd.Closure = copyClosure(cmd.Closure, &memo)
	}
	return child, cmd, copyList(args, &memo)
}

// Spawn forks the interpreter and detaches the copy from the parent's
// process-group state: the child gets its own interrupt line, cancel
// slot, and background-job table.  Fork models a subshell; Spawn models a
// fresh top-level interpreter stamped out of a warm template — how esd
// starts each session — so interrupting or deadlining one session can
// never abort another, and `wait` in one session cannot reap another's
// jobs.  Like Fork it shares the template's frozen variables instead of
// copying them, so a session costs the same however many the template
// defines.
func (i *Interp) Spawn() *Interp {
	child := i.Fork()
	child.sig, child.intrSeen = new(signals), 0
	child.jobs = new(jobTable)
	return child
}

// forkMemo preserves object identity — including cycles, which es values
// can form ("the ability to create true recursive structures") — across
// the deep copy.  Its maps are made on first use.
type forkMemo struct {
	bindings map[*Binding]*Binding
	closures map[*Closure]*Closure
}

// capturesBindings reports whether l holds a closure with captured
// bindings: the mutable state a fork has to copy.
func capturesBindings(l List) bool {
	for _, t := range l {
		if t.Closure != nil && t.Closure.Env != nil {
			return true
		}
	}
	return false
}

func copyList(l List, memo *forkMemo) List {
	if !capturesBindings(l) {
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
	dup := &Closure{Unit: c.Unit}
	if memo.closures == nil {
		memo.closures = make(map[*Closure]*Closure)
	}
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
	if memo.bindings == nil {
		memo.bindings = make(map[*Binding]*Binding)
	}
	memo.bindings[b] = dup
	dup.Value = copyList(b.Value, memo)
	dup.Next = copyBindings(b.Next, memo)
	return dup
}

// parseCache maps source text to the root unit of its program, lowered
// whole from the rewritten tree of its first run, which is then dropped:
// the program keeps the source, and derives the tree again only when a
// closure is unparsed (see compile.Unit.Tree).  Nothing writes a cached
// program, so it is shared by every evaluation and every interpreter in
// the process.  Repeated eval/%parse of the same source (and every
// startup's initial.es) skips the lexer and the compiler entirely.
var parseCache = cache.NewMap[*compile.Unit]("parse", 512)

// reused counts the runs that found their program lowered, and
// lowerings the programs lowered: $&cachestats reports them as the
// compile cache's hits and misses.
var reused, lowerings atomic.Int64

// maxCachedSrc bounds the source size the parse cache will retain; huge
// one-off scripts would otherwise pin memory for no repeat benefit.
const maxCachedSrc = 1 << 14

// ParseCommand parses source into the core representation, as the
// checkers (es -n, escheck, esd -vet, $&analyze) read it.  It neither
// lowers the tree nor touches the parse cache.
func ParseCommand(src string) (*syntax.Block, error) {
	b, err := syntax.Parse(src)
	if err != nil {
		return nil, err
	}
	return syntax.Rewrite(b).(*syntax.Block), nil
}

// CompileCommand returns the unit of src's whole program.  On a parse
// cache miss it parses src, lowers the tree with the source and, for a
// source of modest size, fills the cache entry.  Sessions that race on a
// fresh program may each lower it, and the cache keeps one.
func CompileCommand(src string) (*compile.Unit, error) {
	cacheable := len(src) <= maxCachedSrc
	if cacheable {
		if u, ok := parseCache.Get(src); ok {
			reused.Add(1)
			return u, nil
		}
	}
	b, err := ParseCommand(src)
	if err != nil {
		return nil, err
	}
	lowerings.Add(1)
	u, _ := compile.Compile(b, &src) // total: the error is always nil
	if cacheable {
		parseCache.Put(src, u)
	}
	return u, nil
}

// FlushParseCache drops every memoized parse (the $&recache escape hatch
// and the cold-start lever for benchmarks).
func FlushParseCache() { parseCache.Flush() }

// PathCache exposes the interpreter's pathsearch memo so the pathsearch
// primitive (package prim) can consult it and tests can observe it.
func (i *Interp) PathCache() *cache.Map[string] {
	if i.pathCache == nil {
		i.pathCache = cache.NewMap[string]("path", 512)
	}
	return i.pathCache
}

// FlushCaches drops this interpreter's path cache and the process-wide
// parse, decode, and glob caches: the native analogue of Figure 2's
// recache function, bound to $&recache.  A program lives in its parse
// cache entry, so the next run of a flushed source lowers afresh.
func (i *Interp) FlushCaches() {
	i.PathCache().Flush()
	FlushParseCache()
	FlushDecodeCache()
	glob.FlushCache()
}

// CacheStats snapshots every native cache visible to this interpreter, in
// a fixed order (path, parse, compile, decode, glob).  It is the
// AllocStats-style observability surface for the dispatch caches, reported
// by $&cachestats and the es -cachestats flag.
func (i *Interp) CacheStats() []cache.Stats {
	return []cache.Stats{
		i.PathCache().Stats(),
		parseCache.Stats(),
		{Name: "compile", Hits: reused.Load(), Misses: lowerings.Load()},
		decodeCache.Stats(),
		glob.CacheStats(),
	}
}

// RunString parses and evaluates src, returning its rich result.
func (i *Interp) RunString(ctx *Ctx, src string) (List, error) {
	u, err := CompileCommand(src)
	if err != nil {
		return nil, ErrorExc(err.Error())
	}
	return i.execUnit(ctx.NonTail(), u, nil)
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
	u, perr := CompileCommand(string(src))
	if perr != nil {
		return nil, ErrorExc(path + ": " + perr.Error())
	}
	// $0 names the script for its dynamic extent, $* holds the args.
	cl := &Closure{Unit: u, Env: &Binding{Name: "0", Value: StrList(path)}}
	return i.Apply(ctx.NonTail(), cl, args)
}
